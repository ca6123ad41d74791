"""The benchmark's seed-1 cases, checked by the benchmark's own checker.

Every case goes through ``parse_config -> run -> emit`` as JSON text, the way
``bench/run.py`` feeds the program, and its report is held to the case's
classifications, schedule and reference values by ``check.check_report``.
A second run of each config must give the same status and bytes, and so must
a pass traced by the benchmark's ``--trace 1`` tracer, whose norm metrics read
the points ``localops.norm`` returns.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from spintail import asymptotics, classical, cli, localops, sequences, shifts, states
from spintail.cli import parse_config, run
from spintail.report import emit

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
try:
    import check
    import tracing
    import workloads
finally:
    sys.path.pop(0)


def _execute(text: str) -> tuple[int, bytes]:
    """Exit status and report bytes of ``spintail run`` on a config text."""
    config = parse_config(text)
    rep, failures = run(config)
    return (2 if failures else 0), emit(rep, config.out_format)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_one_cases_pass_bench_checks(workload):
    tally = check.Tally()
    for case in workloads.generate(workload, 1):
        first = _execute(case.text)
        check.check_report(tally, case, *first)
        check.check_rerun(tally, case, first, _execute(case.text))
    assert tally.attempted > 0
    assert tally.failures == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_matches_and_counts_every_norm(workload):
    texts = [case.text for case in workloads.generate(workload, 1)]
    plain = [_execute(text) for text in texts]
    tracer = tracing.Tracer()
    tracer.install(cli=cli, asymptotics=asymptotics, sequences=sequences, shifts=shifts,
                   localops=localops, states=states, classical=classical)
    try:
        traced = [_execute(text) for text in texts]
    finally:
        tracer.uninstall()
    assert traced == plain
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, 1.0)
    norms = sum(span[0] == "localops.norm" for span in tracer.spans)
    assert norms > 0
    routes = ("exact", "dense", "iterative")
    assert sum(metrics[f"localops.norm_{r}_calls"] for r in routes) == norms
    assert metrics["localops.gram_applies"] == metrics["localops.norm_iterations"]
    assert metrics["localops.norm_unconverged"] == 0


def _strict_json(text):
    """``text`` parsed as JSON, refusing ``NaN``, ``Infinity`` and ``-Infinity``."""

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_one_reports_are_strict_json(workload):
    # a value that is not finite is refused, never written as NaN or Infinity
    for case in workloads.generate(workload, 1):
        _strict_json(_execute(case.text)[1])


@pytest.mark.parametrize("path", sorted((ROOT / "tests" / "data").glob("*.json")),
                         ids=lambda p: p.name)
def test_golden_reports_are_strict_json(path):
    _strict_json(path.read_text())


def test_report_digests_unchanged(tmp_path):
    """Every report of benchmark seeds 1 to 3 has the bytes it had when
    ``tests/data/report_digests.tsv`` was written by ``tests/report_digests.py``.

    Regenerate that file only in a change that moves report bytes under the
    ROADMAP's rule for intended byte changes, or in a benchmark change that
    changes the cases.  The script runs in a child process, so it takes its
    one BLAS thread before numpy loads, as the benchmark does.
    """
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "report_digests.py")],
                          capture_output=True, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "data" / "report_digests.tsv").read_bytes()
