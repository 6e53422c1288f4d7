"""Record the reference outputs that the benchmark checks every operation against.

Runs every operation of every workload's pool once and stores its inputs and
outputs in ``references/<workload>.json.gz``.  Run it from the repository
root, at the commit whose outputs are to be the reference:

    python3 perfbench/record_references.py [workload ...]

A certify_designs draw is replaced by the next draw when its LQR design or
constant chain raises, or when its outputs are not determined by the design
to well within the check's tolerance: BASIS_PROBES random changes of basis
(see CertifyDesigns.prepare) must move no output by more than RTOL/1000.
Some random designs put a constant through heavy cancellation (gap_rhs at
h=1 when omega2 >> omega1); round-off there exceeds any useful tolerance,
so no operation of the benchmark could be checked on them.
"""

from __future__ import annotations

import gzip
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import doscontrol  # noqa: E402
import workloads  # noqa: E402
from provenance import git_commit  # noqa: E402

MAX_ATTEMPTS = 20
BASIS_PROBES = 12


def run_once(wl, inp, variant) -> dict:
    prepared = wl.prepare(inp, variant)
    return workloads.normalize(wl.summarize(prepared, wl.run(prepared)))


def record(cls) -> dict:
    wl = cls([], workloads.package(workloads.CURRENT))
    entries = []
    for block in range(cls.pool_blocks):
        for pos in range(len(cls.kinds)):
            for attempt in range(MAX_ATTEMPTS):
                inp = cls.pool_input(block, pos, attempt)
                try:
                    output = run_once(wl, inp, [0, 0])
                    if cls is workloads.CertifyDesigns:
                        for probe in range(1, BASIS_PROBES + 1):
                            unstable = workloads.mismatch(
                                output, run_once(wl, inp, [probe, probe]),
                                rtol=workloads.RTOL / 1000,
                            )
                            if unstable:
                                raise ArithmeticError(f"round-off sensitive at {unstable}")
                except Exception as exc:  # noqa: BLE001 - a rejected draw
                    if cls is not workloads.CertifyDesigns:
                        raise
                    print(f"{cls.name} {inp}: redrawn after {exc!r}", file=sys.stderr)
                    continue
                entries.append({"input": inp, "output": output})
                break
            else:
                raise RuntimeError(f"{cls.name}: no usable draw for block {block} pos {pos}")
    return {
        "workload": cls.name,
        "recorded_with": {
            "commit": git_commit(ROOT),
            "doscontrol": doscontrol.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "entries": entries,
    }


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        cls = workloads.WORKLOADS[name]
        start = time.perf_counter()
        data = record(cls)
        with gzip.open(cls.reference_path(), "wt") as fh:
            json.dump(data, fh, separators=(",", ":"))
        print(f"{name}: {len(data['entries'])} entries in "
              f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
