"""Finite-volume estimators for the limiting behavior of observable sequences.

Traces of norms along a growing schedule stand in for nets indexed by all
finite volumes; the tail maximum is the limsup proxy, and a log-log fit over
the tail classifies each trace as vanishing, bounded away from zero, or
undecided.  The thresholds are explicit, conservative named constants:

* vanishing    -- fitted exponent <= -VANISHING_EXPONENT (0.5), or every
                  tail value below the absolute VANISHING_FLOOR (1e-9);
* bounded_nonvanishing -- tail minimum above NONVANISHING_FLOOR (1e-6) and
                  |exponent| < NONVANISHING_EXPONENT (0.1);
* unconverged  -- anything else, including any norm point whose iterative
                  solver did not converge.

A :class:`DecayReport` is also the record a report series is written from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation
from .localops import (
    LocalOperator,
    from_site_factors,
    norm,
    pauli_at,
    sum_commutator,
)
from .matrices import pauli
from .sequences import GammaSeq, ObservableSequence, TranslatedToInfinity, as_schedule
# eval_gamma_sequence is not called here, but stays bound: the benchmark
# tracer wraps asymptotics.eval_gamma_sequence by name
from .shifts import _meeting_average, eval_gamma_sequence

__all__ = [
    "TracePoint",
    "DecayReport",
    "ProbeResult",
    "VANISHING_EXPONENT",
    "VANISHING_FLOOR",
    "NONVANISHING_EXPONENT",
    "NONVANISHING_FLOOR",
    "fit_loglog",
    "classify_trace",
    "quotient_norm_estimate",
    "equivalence_test",
    "vanishing_test",
    "commutant_membership",
    "gamma_bound_check",
    "mutual_commutator_trace",
    "default_probes",
]

VANISHING_EXPONENT = 0.5
VANISHING_FLOOR = 1e-9
NONVANISHING_EXPONENT = 0.1
NONVANISHING_FLOOR = 1e-6


@dataclass(frozen=True)
class TracePoint:
    n: int
    value: float
    converged: bool = True


@dataclass(frozen=True)
class DecayReport:
    """A norm trace along a schedule together with its tail diagnostics."""

    points: tuple[TracePoint, ...]
    fitted_exponent: float | None
    fit_residual: float | None
    classification: str
    bound_points: tuple[tuple[int, float], ...] | None = None
    bound_violations: tuple[int, ...] = ()
    # wall-clock seconds per point; diagnostic only, never serialized
    point_seconds: tuple[float, ...] = ()

    @property
    def pairs(self) -> tuple[tuple[int, float], ...]:
        return tuple((p.n, p.value) for p in self.points)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(p.value for p in self.points)

    def tail(self) -> tuple[TracePoint, ...]:
        k = max(1, len(self.points) // 2)
        return self.points[-k:]


@dataclass(frozen=True)
class ProbeResult:
    label: str
    report: DecayReport | None
    skipped: bool = False
    reason: str | None = None

    @property
    def passed(self) -> bool:
        return (not self.skipped) and self.report.classification == "vanishing"


def fit_loglog(points: tuple[TracePoint, ...]):
    """Least-squares slope of log(value) vs log(n) over the tail window.

    The window is the last max(3, len//2) points; nonpositive values are
    dropped (they already witness vanishing).  Returns (exponent, residual),
    both ``None`` when fewer than three positive points remain.
    """
    if len(points) < 3:
        return None, None
    window = points[-max(3, len(points) // 2):]
    pos = [(p.n, p.value) for p in window if p.value > 0.0]
    if len(pos) < 3:
        return None, None
    x = np.array([math.log(n) for n, _ in pos])
    y = np.array([math.log(v) for _, v in pos])
    coeffs, *_ = np.linalg.lstsq(np.column_stack([x, np.ones_like(x)]), y, rcond=None)
    slope = float(coeffs[0])
    resid = float(np.sqrt(np.mean((y - (coeffs[0] * x + coeffs[1])) ** 2)))
    return slope, resid


def classify_trace(points, seconds=()) -> DecayReport:
    """Build a :class:`DecayReport` from (n, value[, converged]) points.

    ``seconds`` holds the wall-clock time of each point, kept as a diagnostic.
    """
    pts = tuple(
        p if isinstance(p, TracePoint) else TracePoint(*p) for p in points
    )
    exponent, residual = fit_loglog(pts)
    k = max(1, len(pts) // 2)
    tail = pts[-k:]
    if any(not p.converged for p in pts):
        cls = "unconverged"
    elif all(p.value < VANISHING_FLOOR for p in tail):
        cls = "vanishing"
    elif exponent is not None and exponent <= -VANISHING_EXPONENT:
        cls = "vanishing"
    elif (
        exponent is not None
        and abs(exponent) < NONVANISHING_EXPONENT
        and min(p.value for p in tail) > NONVANISHING_FLOOR
    ):
        cls = "bounded_nonvanishing"
    else:
        cls = "unconverged"
    return DecayReport(pts, exponent, residual, cls, point_seconds=tuple(seconds))


def _norm_report(values, schedule, method, **norm_kwargs) -> DecayReport:
    """Classified trace of ``norm(values(n), n)`` along the schedule."""
    pairs, secs = schedule.trace(lambda n: norm(values(n), n, method, **norm_kwargs))
    return classify_trace([(n, r.value, r.converged) for n, r in pairs], secs)


def quotient_norm_estimate(
    seq: ObservableSequence, schedule, method: str = "auto", **norm_kwargs
):
    """Tail-max proxy for the limsup of the norm trace.

    Returns ``(estimate, report)``; the full trace is always reported so a
    caller can judge stabilization rather than trust one number.
    """
    report = vanishing_test(seq, schedule, method=method, **norm_kwargs)
    estimate = max(p.value for p in report.tail())
    return estimate, report


def _need_points(schedule, k):
    if len(schedule.points) < k:
        raise ContractViolation(f"this estimator needs at least {k} schedule points")


def equivalence_test(
    a: ObservableSequence, b: ObservableSequence, schedule, method: str = "auto", **norm_kwargs
) -> DecayReport:
    """Trace of the difference norm; vanishing means the sequences are identified."""
    schedule = as_schedule(schedule)
    _need_points(schedule, 4)
    return _norm_report(lambda n: a.eval(n) - b.eval(n), schedule, method, **norm_kwargs)


def vanishing_test(
    seq: ObservableSequence, schedule, method: str = "auto", **norm_kwargs
) -> DecayReport:
    """Membership test for the ideal of sequences whose norms tend to zero."""
    schedule = as_schedule(schedule)
    _need_points(schedule, 4)
    return _norm_report(seq.eval, schedule, method, **norm_kwargs)


def default_probes(site_dim: int = 2) -> list[tuple[str, LocalOperator]]:
    """Single-site Paulis at sites 1 and 2 plus one entangling two-site probe."""
    if site_dim != 2:
        raise ContractViolation("default probes are defined for qubit sites")
    probes = []
    for site in (1, 2):
        for kind in (1, 2, 3):
            probes.append((f"pauli{kind}@{site}", pauli_at(kind, site)))
    probes.append(
        ("pauli1*pauli3@1,2", from_site_factors({1: pauli(1), 2: pauli(3)}))
    )
    return probes


def commutant_membership(
    seq: ObservableSequence, probes=None, schedule=None, method: str = "auto", **norm_kwargs
) -> list[ProbeResult]:
    """Commutator-norm traces against finitely many fixed local probes.

    ``probes`` is a list of ``(label, LocalOperator)`` pairs, by default
    :func:`default_probes`.  A sequence passes when every probe's trace
    classifies as vanishing.  This realizes finitely many volumes of the
    defining intersection, so it is a sound but incomplete check; skipped
    probes (support larger than the smallest schedule point) are reported as
    such.
    """
    schedule = as_schedule(schedule)
    _need_points(schedule, 4)
    if probes is None:
        probes = default_probes(seq.site_dim)
    results = []
    min_n = schedule.points[0]
    for label, probe in probes:
        sup = probe.support
        if sup and sup[-1] > min_n:
            results.append(
                ProbeResult(
                    label,
                    None,
                    skipped=True,
                    reason=f"probe support {sup} exceeds smallest volume {min_n}",
                )
            )
            continue
        probe_sum = probe.as_sum()
        rep = _norm_report(
            lambda n: sum_commutator(seq.eval(n), probe_sum), schedule, method, **norm_kwargs
        )
        results.append(ProbeResult(label, rep))
    return results


def _hull_size(support) -> int:
    return support[-1] - support[0] + 1 if support else 0


def gamma_bound_check(
    seq: GammaSeq,
    probe: LocalOperator,
    schedule,
    slack: float = 1e-9,
    method: str = "auto",
    **norm_kwargs,
) -> DecayReport:
    """Measured commutator trace of a shift average against its 1/N envelope.

    The envelope is 2 (W0 + W') |seed| |probe| / N with W0, W' the interval
    hulls of the seed and probe supports: at most W0 + W' cyclic shifts can
    overlap the probe, each contributing at most 2 |seed| |probe| / N.  Bound
    violations are recorded in the report (a test-surface signal), not raised.

    Only the shifts whose support meets the probe's are built: the others
    commute with it, so the commutator is the full average's, term for term,
    and the work per point does not grow with N.
    """
    schedule = as_schedule(schedule)
    _need_points(schedule, 4)
    w0 = _hull_size(seq.seed.support)
    wp = _hull_size(probe.support)
    amp = 2.0 * (w0 + wp) * seq.seed.norm_exact() * probe.norm_exact()
    probe_sum = probe.as_sum()
    rep = _norm_report(
        lambda n: sum_commutator(_meeting_average(seq, n, probe.support), probe_sum),
        schedule,
        method,
        **norm_kwargs,
    )
    bound_points = tuple((n, amp / n) for n in schedule.points)
    violations = tuple(
        p.n for p, (_, b) in zip(rep.points, bound_points) if p.value > b + slack
    )
    return replace(rep, bound_points=bound_points, bound_violations=violations)


def mutual_commutator_trace(
    a: ObservableSequence, c: ObservableSequence, schedule, method: str = "auto", **norm_kwargs
) -> DecayReport:
    """Trace of the commutator norm between two sequences.

    When both sequences are single-site observables translated along the same
    site rule, the trace must be the constant one-site commutator norm; that
    reference is attached as the bound trace and deviations beyond 1e-9 are
    recorded as violations.
    """
    schedule = as_schedule(schedule)
    rep = _norm_report(
        lambda n: sum_commutator(a.eval(n), c.eval(n)), schedule, method, **norm_kwargs
    )
    bound_points = None
    violations = ()
    if isinstance(a, TranslatedToInfinity) and isinstance(c, TranslatedToInfinity):
        same_rule = all(a.site_at(n) == c.site_at(n) for n in schedule.points)
        if same_rule:
            m = a.site_op @ c.site_op - c.site_op @ a.site_op
            ref = float(np.linalg.svd(m, compute_uv=False)[0])
            bound_points = tuple((n, ref) for n in schedule.points)
            violations = tuple(
                p.n for p in rep.points if abs(p.value - ref) > 1e-9
            )
    return replace(rep, bound_points=bound_points, bound_violations=violations)
