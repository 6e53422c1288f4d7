"""The four batch workloads: their input pools, the operation each times, and
the output check against the recorded reference.

Every workload draws its operation inputs from a fixed pool whose reference
outputs are stored under ``references/`` (see ``record_references.py``).  The
pool is split into blocks; one block holds one operation of every kind the
workload cycles through, and the workload seed fixes the order in which the
blocks run.  A run that outlasts its pool starts the same order again.

The package is driven only through the public functions of its modules.
The modules come in as a namespace (``package``): the package under test
from the checkout's ``src`` directory, which the caller must have put on
``sys.path``, or the frozen copy in ``seed_impl/``.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import gzip
import hashlib
import importlib
import io
import json
import math
import os
import sys
import types
from pathlib import Path

import numpy as np
import scipy.linalg

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The package under test, imported from the checkout's src directory, and
# the same package frozen as it was when the benchmark was defined.  Every
# measured op runs on both, and the host's speed in the run is read off the
# frozen copy (see worker.measure).
CURRENT = "doscontrol"
SEED = "doscontrol_seed"
SEED_DIR = HERE / "seed_impl"
MODULES = ("bounds", "cli", "dos", "plant", "simulation")
REFERENCE_DIR = HERE / "references"
WORK_DIR = HERE / "out"
BUNDLED_CONFIG = ROOT / "configs" / "benchmark.json"

# Floats must match the reference to this relative tolerance.  The slack
# admits arithmetic reordered by a refactor and the changes of basis of
# certify_designs (round-off up to about 3e-10 on the recorded pool), and
# nothing that changes a result.
RTOL = 1e-8
ATOL = 1e-12

# Long clear gaps and short bursts: about 6% of attempts are jammed,
# against about 70% under the bundled generator.
LIGHT_SPEC = {"off_range": [1.0, 4.0], "on_range": [0.05, 0.4]}


def package(name: str) -> types.SimpleNamespace:
    """The modules a workload drives, of package ``name`` (CURRENT or SEED)."""
    if name == SEED and str(SEED_DIR) not in sys.path:
        sys.path.insert(0, str(SEED_DIR))
    return types.SimpleNamespace(
        name=name, **{mod: importlib.import_module(f"{name}.{mod}") for mod in MODULES}
    )


def load_bundled() -> dict:
    with open(BUNDLED_CONFIG) as fh:
        return json.load(fh)


class Workload:
    """One benchmark workload.

    ``kinds`` lists the operation kinds of one block, in run order.
    ``prepare`` builds an operation's inputs outside the timed region,
    ``run`` is the timed operation, and ``summarize`` turns its result into
    the JSON-ready record compared with the reference.
    """

    name = ""
    kinds: tuple[dict, ...] = ()
    pool_blocks = 0  # blocks recorded in the reference pool
    seed_base = 0  # offset of the generator seeds of this pool
    warmup_pos = 0  # kind within a block used for the warm-up operation
    trace_blocks = 1  # blocks in the traced run's fixed operation list
    rate_metric: str | None = None  # work rate printed beside ops_per_s
    # run each measured op on both implementations at once (worker.measure);
    # certify_designs does not, as much of its time is in OpenBLAS threads
    # that a thread's CPU clock does not see
    interleaved = False
    # The seed implementation's throughput (ops per busy second) and set-up
    # time (CPU seconds) on the reference host, the 2-vCPU Xeon VM the
    # benchmark was defined on: rounded medians of its own figures over
    # 5-8 runs there.  They only scale ops_per_s and setup_s; see
    # worker.measure and run.run_workload.
    reference_ops_per_s: float
    reference_setup_s: float

    def __init__(self, entries: list[dict], pkg: types.SimpleNamespace):
        """``entries`` are reference records {"input": ..., "output": ...};
        ``pkg`` holds the modules the ops call (see ``package``)."""
        self.entries = entries
        self.pkg = pkg
        self.blocks = len(entries) // len(self.kinds)

    # -- pool and order ---------------------------------------------------
    @classmethod
    def reference_path(cls) -> Path:
        return REFERENCE_DIR / f"{cls.name}.json.gz"

    @classmethod
    def load(cls, pkg: types.SimpleNamespace) -> "Workload":
        with gzip.open(cls.reference_path(), "rt") as fh:
            return cls(json.load(fh)["entries"], pkg)

    @classmethod
    def pool_input(cls, block: int, pos: int, attempt: int) -> dict:
        """Input of pool entry (block, pos); ``attempt`` > 0 redraws it."""
        key = cls.seed_base + block * len(cls.kinds) + pos
        return {**cls.kinds[pos], "dos_seed": key, "noise_seed": key + 500_000}

    def block_order(self, seed: int) -> list[int]:
        return [int(b) for b in np.random.default_rng(seed).permutation(self.blocks)]

    def block_entries(self, block: int) -> list[dict]:
        size = len(self.kinds)
        return self.entries[block * size:(block + 1) * size]

    def warmup_entry(self, seed: int) -> dict:
        """The last block in run order is reached only after a full pool."""
        return self.block_entries(self.block_order(seed)[-1])[self.warmup_pos]

    # -- one operation ----------------------------------------------------
    def prepare(self, inp: dict, variant: list[int]):
        """The op's arguments; ``variant`` is [workload seed, pass over the pool]."""
        return inp

    def run(self, prepared):
        raise NotImplementedError

    def summarize(self, prepared, result) -> dict:
        return result

    def label(self, inp: dict) -> str:
        """The op's size label in the traced run (dos_audit only)."""
        return ""

    def work(self, inp: dict, output: dict) -> float:
        """The op's amount of the rate metric's work."""
        return 0.0


class McVerdicts(Workload):
    """Monte-Carlo verdict sweep: one 50 s closed loop per operation."""

    name = "mc_verdicts"
    horizon = 50.0
    kinds = tuple(
        {"mode": mode, "h": h, "spec": spec}
        for spec in ("heavy", "light")
        for mode, h in (("colocated", 1), ("remote", 1), ("remote", 5), ("remote", 50))
    )
    pool_blocks = 128
    seed_base = 1_000_000
    rate_metric = "sim_s_per_s"
    interleaved = True
    reference_ops_per_s = 9.2
    reference_setup_s = 0.87
    envelope_h = 50
    warmup_pos = 7
    trace_blocks = 2

    def __init__(self, entries, pkg):
        super().__init__(entries, pkg)
        bounds, dos, plant = pkg.bounds, pkg.dos, pkg.plant
        cfg = load_bundled()
        self.plant = plant.LtiPlant(A=cfg["plant"]["A"], B=cfg["plant"]["B"])
        self.K = np.array(cfg["controller"]["K"], dtype=float)
        self.delta_big = float(cfg["network"]["delta_big"])
        design = bounds.DesignInputs(
            plant=self.plant, K=self.K,
            sigma_fraction=cfg["controller"]["sigma_fraction"],
        )
        self.envelope_consts = bounds.derive_constants(
            design, self.envelope_h, self.delta_big
        )
        self.P = self.envelope_consts.P
        gen = cfg["dos"]["generator"]
        self.specs = {
            "heavy": dos.GeneratorSpec(
                off_range=tuple(gen["off_range"]), on_range=tuple(gen["on_range"])
            ),
            "light": dos.GeneratorSpec(
                off_range=tuple(LIGHT_SPEC["off_range"]),
                on_range=tuple(LIGHT_SPEC["on_range"]),
            ),
        }
        self.dos_class = dos.DoSClassParams(**cfg["dos_class"])
        self.d_bound = float(cfg["noise"]["d_bound"])
        self.n_bound = float(cfg["noise"]["n_bound"])
        self.w_inf = math.sqrt(self.plant.n * (self.d_bound**2 + self.n_bound**2))
        self.x0 = np.array(cfg["sim"]["x0"], dtype=float)

    def run(self, inp):
        bounds, dos, simulation = self.pkg.bounds, self.pkg.dos, self.pkg.simulation
        sig = dos.generate(inp["dos_seed"], self.specs[inp["spec"]], self.horizon)
        config = simulation.SimConfig(
            delta_big=self.delta_big, horizon=self.horizon, h=inp["h"],
            substeps=10, mode=inp["mode"],
        )
        noise = simulation.NoiseSpec(
            d_bound=self.d_bound, n_bound=self.n_bound, seed=inp["noise_seed"]
        )
        trace = simulation.simulate(
            self.plant, self.K, config, sig, noise, self.x0, P=self.P
        )
        envelope_ok = None
        if inp["h"] == self.envelope_h:
            # the same steps, and the same fallback, as `doscontrol sim`
            try:
                q = dos.success_gap_bound(self.dos_class, self.delta_big)
                env = bounds.decay_envelope(
                    self.envelope_consts, q, self.delta_big, inp["h"], config.delta
                )
                envelope_ok = simulation.check_envelope(
                    trace, env, self.envelope_consts, self.w_inf
                )
            except (dos.InfeasibleDoSClassError, bounds.HorizonTooShortError, ValueError):
                envelope_ok = None
        return simulation.compute_metrics(trace, envelope_ok=envelope_ok)

    def summarize(self, prepared, result):
        return {
            "stable": result.stable_verdict,
            "failure_fraction": result.failure_fraction,
            "max_gap": result.max_gap,
            "max_state_norm": result.max_state_norm,
            "final_state_norm": result.final_state_norm,
            "envelope_ok": result.envelope_ok,
        }

    def work(self, inp, output):
        return self.horizon


class LongRunExport(Workload):
    """Long experiments through the CLI, with CSV and metrics export."""

    name = "long_run_export"
    horizon = 500.0
    kinds = tuple(
        {"mode": mode, "h": h}
        for mode, h in (("colocated", 1), ("remote", 5), ("remote", 50))
    )
    pool_blocks = 12
    seed_base = 2_000_000
    rate_metric = "sim_s_per_s"
    interleaved = True
    reference_ops_per_s = 0.38
    reference_setup_s = 2.8
    warmup_pos = 0
    trace_blocks = 1

    def __init__(self, entries, pkg):
        super().__init__(entries, pkg)
        self.bundled = load_bundled()
        self.dir = WORK_DIR / self.name / pkg.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.csv_path = str(self.dir / "trace.csv")
        self.metrics_path = str(self.dir / "metrics.json")

    def prepare(self, inp, variant):
        cfg = copy.deepcopy(self.bundled)
        cfg["sim"]["horizon"] = self.horizon
        cfg["sim"]["mode"] = inp["mode"]
        cfg["buffer"]["h"] = inp["h"]
        cfg["dos"]["generator"]["seed"] = inp["dos_seed"]
        cfg["noise"]["seed"] = inp["noise_seed"]
        path = self.dir / f"config-{inp['dos_seed']}.json"
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return str(path)

    def run(self, config_path):
        argv = ["sim", config_path, "--trace", self.csv_path, "--metrics", self.metrics_path]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.pkg.cli.main(argv)

    def summarize(self, config_path, exit_code):
        with open(self.metrics_path) as fh:
            metrics = json.load(fh)
        flags = hashlib.sha256()
        rows = 0
        with open(self.csv_path) as fh:
            version = fh.readline().rstrip("\n")
            header = fh.readline().rstrip("\n")
            for line in fh:
                # the last four columns: dos_active, attempt, success, buffer_depth
                flags.update(",".join(line.rsplit(",", 4)[1:]).encode())
                rows += 1
        for path in (config_path, self.csv_path, self.metrics_path):
            os.remove(path)
        return {
            "exit_code": exit_code,
            "metrics": metrics,
            "csv_version": version,
            "csv_header": header,
            "csv_rows": rows,
            "csv_flags_sha256": flags.hexdigest(),
        }

    def work(self, inp, output):
        return self.horizon


class CertifyDesigns(Workload):
    """Design-space certification sweep over random plants with LQR gains."""

    name = "certify_designs"
    kinds = tuple({"n": n} for n in (2, 4, 8, 16, 24))
    h_values = (1, 5, 50)
    pool_blocks = 100
    warmup_pos = 4
    reference_ops_per_s = 58.0
    reference_setup_s = 0.66
    trace_blocks = 4

    def __init__(self, entries, pkg):
        super().__init__(entries, pkg)
        cfg = load_bundled()
        self.delta_big = float(cfg["network"]["delta_big"])
        self.delta = self.delta_big / int(cfg["network"]["b"])
        self.dos_class = pkg.dos.DoSClassParams(**cfg["dos_class"])

    @classmethod
    def pool_input(cls, block, pos, attempt):
        # a draw the recording run rejected (see record_references.py) is
        # replaced by the next attempt
        return {**cls.kinds[pos], "design_seed": [block, pos, attempt]}

    def prepare(self, inp, variant):
        """Random Gaussian (A, B) and its LQR gain, from the entry's seed.

        The state and input coordinates are then rotated by random
        orthogonal matrices drawn from ``variant``.  With M = I every
        certified quantity is invariant under such a change of basis, so
        the recorded outputs still apply (up to round-off), while each
        workload seed and each pass over the pool hands the package
        different matrices.
        """
        n = inp["n"]
        m = max(1, n // 2)
        rng = np.random.default_rng(inp["design_seed"])
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, m))
        k = -b.T @ scipy.linalg.solve_continuous_are(a, b, np.eye(n), np.eye(m))
        basis = np.random.default_rng([*variant, *inp["design_seed"]])
        q = _orthogonal(basis, n)
        r = _orthogonal(basis, m)
        return q @ a @ q.T, q @ b @ r, r.T @ k @ q.T

    def run(self, prepared):
        bounds, dos, plant = self.pkg.bounds, self.pkg.dos, self.pkg.plant
        a, b, k = prepared
        design = bounds.DesignInputs(plant=plant.LtiPlant(A=a, B=b), K=k)
        chains = [bounds.derive_constants(design, h, self.delta) for h in self.h_values]
        first = chains[0]
        delta_max = bounds.max_sampling_period(
            first.mu_A, first.gamma1 / first.gamma2, first.norm_Phi
        )
        q = dos.success_gap_bound(self.dos_class, self.delta_big)
        h_min = bounds.min_prediction_horizon(first, q, self.delta_big, self.delta)
        per_h = []
        for h, consts in zip(self.h_values, chains):
            gap = _outcome(
                bounds.HorizonTooShortError, bounds.tolerable_dos_bound, consts, h, self.delta, self.delta_big,
                self.dos_class.kappa, self.dos_class.eta,
            )
            env = _outcome(
                bounds.HorizonTooShortError, bounds.decay_envelope, consts, q, self.delta_big, h, self.delta
            )
            per_h.append((gap, env))
        return chains, delta_max, q, h_min, per_h

    def summarize(self, prepared, result):
        chains, delta_max, q, h_min, per_h = result
        chain = {}
        for field in dataclasses.fields(chains[0]):
            if field.name == "P":
                continue  # P enters alpha1, alpha2, gamma2 and gamma3
            values = [getattr(c, field.name) for c in chains]
            # a constant that does not depend on h is stored once
            same = all(math.isclose(v, values[0], rel_tol=RTOL) for v in values)
            chain[field.name] = values[0] if same else values
        return {
            "chain": chain,
            "delta_max": delta_max,
            "Q": q,
            "h_min": h_min,
            "gap_rhs": [gap for gap, _ in per_h],
            "envelope": [
                env if isinstance(env, str) else [env.beta, env.lam, env.L]
                for _, env in per_h
            ],
        }


class DosAudit(Workload):
    """Audits of recorded attacks: measure, fit the class, check the gap bound."""

    name = "dos_audit"
    kinds = tuple({"H": h} for h in (50.0, 500.0, 2000.0))
    size_labels = {50.0: "n40", 500.0: "n400", 2000.0: "n1500"}
    pool_blocks = 24
    seed_base = 3_000_000
    rate_metric = "intervals_per_s"
    interleaved = True
    reference_ops_per_s = 1.3
    reference_setup_s = 0.46
    warmup_pos = 0
    trace_blocks = 1

    def __init__(self, entries, pkg):
        super().__init__(entries, pkg)
        cfg = load_bundled()
        gen = cfg["dos"]["generator"]
        self.spec = pkg.dos.GeneratorSpec(
            off_range=tuple(gen["off_range"]), on_range=tuple(gen["on_range"])
        )
        self.delta_big = float(cfg["network"]["delta_big"])

    @classmethod
    def pool_input(cls, block, pos, attempt):
        return {**cls.kinds[pos], "seed": cls.seed_base + block * len(cls.kinds) + pos}

    def run(self, inp):
        dos = self.pkg.dos
        horizon = inp["H"]
        sig = dos.generate(inp["seed"], self.spec, horizon)
        measure = dos.dos_measure(sig, 0.0, horizon)
        count = dos.transitions_count(sig, 0.0, horizon)
        tau_d = horizon / count
        big_t = horizon / measure
        eta, kappa = dos.fit_class_params(sig, tau_d, big_t)
        verdict = dos.check_gap_bound(
            sig, self.delta_big,
            dos.DoSClassParams(eta=eta, tau_D=tau_d, kappa=kappa, T=big_t),
            horizon,
        )
        return {
            "eta": eta,
            "kappa": kappa,
            "dos_measure": measure,
            "count": count,
            "z0": verdict.z0,
            "max_gap": verdict.max_gap,
            "z0_ok": verdict.z0_ok,
            "max_gap_ok": verdict.max_gap_ok,
        }

    def label(self, inp):
        return self.size_labels[inp["H"]]

    def work(self, inp, output):
        return output["count"]


def _orthogonal(rng, n: int) -> np.ndarray:
    """A random orthogonal matrix (Haar distributed)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _outcome(error, fn, *args):
    """fn's result, or the name of the ``error`` (HorizonTooShortError) it raised."""
    try:
        return fn(*args)
    except error as exc:
        return type(exc).__name__


WORKLOADS = {
    cls.name: cls for cls in (McVerdicts, LongRunExport, CertifyDesigns, DosAudit)
}


def normalize(output: dict) -> dict:
    """The output as the reference file stores it (JSON types only)."""
    return json.loads(json.dumps(output))


def mismatch(ref, got, path: str = "", rtol: float = RTOL) -> str | None:
    """Where ``got`` first differs from ``ref``, or None when it matches.

    Both sides must be JSON-typed (see ``normalize``); floats compare to
    RTOL/ATOL, everything else exactly.
    """
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return f"{path}: keys {sorted(got)} != {sorted(ref)}"
        for key in ref:
            found = mismatch(ref[key], got[key], f"{path}.{key}", rtol)
            if found:
                return found
        return None
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return f"{path}: length {len(got)} != {len(ref)}"
        for i, (r, g) in enumerate(zip(ref, got)):
            found = mismatch(r, g, f"{path}[{i}]", rtol)
            if found:
                return found
        return None
    if type(ref) is float and type(got) is float:
        if ref == got or math.isclose(ref, got, rel_tol=rtol, abs_tol=ATOL):
            return None
    elif type(ref) is type(got) and ref == got:
        return None
    return f"{path}: {got!r} != {ref!r}"
