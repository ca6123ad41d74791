"""Print one sha256 per benchmark report: workload, seed, case label, digest.

Every case that ``bench/workloads.py`` generates for benchmark seeds 1 to 3
goes through ``parse_config -> run -> emit``, the path ``spintail run``
takes, and the digest of its report bytes is printed, one tab-separated line
per case.  Two checkouts give the same reports exactly when their outputs
are equal, so comparing two trees is one command per tree and a ``diff``::

    python tests/report_digests.py > after.txt     # from each checkout's root

Run from the root of a checkout; the package comes from its ``src``.  This is
a script, not a test: pytest collects only ``test_*.py``.
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

import workloads  # noqa: E402
from spintail.cli import parse_config, run  # noqa: E402
from spintail.report import emit  # noqa: E402

SEEDS = (1, 2, 3)


def main() -> int:
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for case in workloads.generate(workload, seed):
                config = parse_config(case.text)
                report, _failures = run(config)
                digest = hashlib.sha256(emit(report, config.out_format)).hexdigest()
                print(f"{workload}\t{seed}\t{case.label}\t{digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
