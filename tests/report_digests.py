"""Print one sha256 per report: workload, seed, case label, digest.

Every case that ``bench/workloads.py`` generates for benchmark seeds 1 to 3
goes through ``parse_config -> run -> emit``, the path ``spintail run``
takes, and the digest of its report bytes is printed, one tab-separated line
per case.  The benchmark's Krylov norms all run on ``a`` itself, so the last
lines, under the workload ``routes``, come from fixed ``norm`` configs at
N = 9 and 10 under ``method: iterative`` that reach the other Krylov routes:
``i a`` of a complex and of a real antisymmetric sum, and the dilation of a
complex and of a real sum, each seed on sites [1, 2]; then ``a`` of a real
symmetric and the dilation of a complex sum, each seed on sites [1, 6].
Those two seeds span 64 states, so every step of their apply plans is a
block on sites that are not contiguous.  Two checkouts give the same reports
exactly when their outputs are equal, so comparing two trees is one command
per tree and a ``diff``::

    python tests/report_digests.py > after.txt     # from each checkout's root

Run from the root of a checkout; the package comes from its ``src``.  This is
a script, not a test: pytest collects only ``test_*.py``.
``tests/test_bench_cases.py::test_report_digests_unchanged`` runs it and
compares its output with ``tests/data/report_digests.tsv``.
"""

from __future__ import annotations

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
# one BLAS thread, as the benchmark runs; set before numpy loads
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import json  # noqa: E402

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from spintail.cli import parse_config, run  # noqa: E402
from spintail.report import emit  # noqa: E402

SEEDS = (1, 2, 3)


def route_cases() -> dict:
    """Label -> config text of the ``routes`` lines, each the norm of the shift
    average of a fixed two-site seed, named by the Krylov route it reaches."""
    rng = np.random.default_rng(0)
    real = rng.normal(size=(4, 4))
    general = real + 1j * rng.normal(size=(4, 4))

    def average(m, sites=(1, 2)) -> dict:
        rows = [[[float(x.real), float(x.imag)] for x in row] for row in m]
        return {"kind": "gamma", "seed": {"matrix": rows, "sites": list(sites)}}

    sequences = {
        "lanczos-ia complex": {"kind": "scale", "factor": [0, 1],
                               "inner": average(general + general.conj().T)},
        "lanczos-dilation complex": average(general),
        "lanczos-dilation real": average(real),
        "lanczos-ia real": average(real - real.T),
        "lanczos-a real on [1, 6]": average(real + real.T, (1, 6)),
        "lanczos-dilation complex on [1, 6]": average(general, (1, 6)),
    }
    return {
        label: json.dumps({"experiment": "norm", "schedule": [9, 10], "method": "iterative",
                           "seed": 1, "sequence": seq}, sort_keys=True)
        for label, seq in sequences.items()
    }


def digest(text: str) -> str:
    config = parse_config(text)
    report, _failures = run(config)
    return hashlib.sha256(emit(report, config.out_format)).hexdigest()


def main() -> int:
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for case in workloads.generate(workload, seed):
                print(f"{workload}\t{seed}\t{case.label}\t{digest(case.text)}")
    for label, text in route_cases().items():
        print(f"routes\t1\t{label}\t{digest(text)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
