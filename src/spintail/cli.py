"""Configuration-driven experiment runner.

A config is one JSON file.  Common fields::

    {
      "experiment": KIND,               # a key of EXPERIMENTS
      "schedule": [4, 6, 8, 10],        # strictly increasing volumes
      "method": "auto",                 # dense | iterative | auto
      "seed": 42,
      "dense_cap": 4096,                # cap on the dense matrices of norms
      ...                               # the fields the kind reads
      "assert": {"classification": "vanishing", "series": LABEL,
                 "all_converged": true, "max_value": 2.0},
      "output": {"format": "json", "path": "out.json"}
    }

``method`` picks the norm route.  ``auto`` takes the exact dense eigensolve
up to the measured crossover ``localops._AUTO_DENSE_DIM`` of the compacted
dimension, and block Lanczos above it.  ``dense_cap`` is a separate limit on
the matrices a norm builds: ``dense`` refuses a larger matrix, and a cap below
the crossover moves ``auto`` to block Lanczos sooner.  It does not cap the
support overlaps that products and commutators densify; those stay capped at
``matrices.DENSE_DIM_CAP``.

Each entry of :data:`EXPERIMENTS` names the fields its kind requires, how
each is parsed, the fewest schedule points it accepts and the handler that
runs it.  The fields are ``sequence`` and ``sequence2`` (see the sequence
grammar below), ``probe`` and ``probes`` (local-operator specs, or a
classical observable), ``observable`` (a single-site local operator) and
``state`` (``{"rho": MAT}``, one site's density matrix).

Sequence grammar (a tree of kind tags)::

    {"kind": "local", "op": OP}
    {"kind": "translated", "op": MAT, "offset": 0}     # site max(1, N-offset)
    {"kind": "gamma", "seed": OP}
    {"kind": "uniform-product", "op": MAT}
    {"kind": "parity-product", "odd": MAT, "even": MAT}
    {"kind": "block-product", "even": MAT, "odd": MAT, "lengths": [1,2,3,...]}
    {"kind": "half-chain", "op": MAT}
    {"kind": "sum"|"product", "left": SEQ, "right": SEQ}
    {"kind": "adjoint", "inner": SEQ}
    {"kind": "scale", "factor": 0.5 | [re, im] | "1/N", "inner": SEQ}

Local operators OP are ``{"matrix": MAT, "sites": [s...]}`` where MAT is a
named constant (pauli1, pauli2, pauli3, identity), an explicit row-major
array with entries ``x`` or ``[re, im]``, or a list of such matrices (one
per site, tensored).  A list is read per-site when it starts with a name, or
when it holds exactly one matrix per site; otherwise it is one d^k x d^k
literal.  Classical observables are
``{"terms": [{"amplitude": A, "freqs": [[site, m, n], ...]}, ...]}`` or the
shorthand ``{"named": "cos_q"|"sin_q"|"cos_p"|"sin_p", "site": s}``; classical
sequences use kinds classical-local | cyclic-average | tail-shifted with an
``"f"`` field.

Exit codes: 0 all experiment assertions passed, 2 an assertion failed (a
check over a report with no series, or an ``assert.series`` that names none,
fails too), 1 configuration or runtime error.  Identical (config, seed) pairs
produce byte-identical JSON; wall-times go to stderr with SPINTAIL_VERBOSE=1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import classical as cl
from .asymptotics import (
    CLASSIFICATIONS,
    MIN_POINTS,
    TracePoint,
    classify_trace,
    commutant_membership,
    equivalence_test,
    gamma_bound_check,
    mutual_commutator_trace,
    vanishing_test,
)
from .errors import CapacityError, ConfigError, ContractViolation
from .localops import NORM_METHODS, LocalOperator, from_site_factors, local_operator
from .matrices import DENSE_DIM_CAP, pauli
from .report import FORMATS, REPORT_SCHEMA, Report, emit
from .sequences import (
    BlockProduct,
    GammaSeq,
    HalfChain,
    LocalEmbedSeq,
    ObservableSequence,
    ParityProduct,
    SeqAdjoint,
    SeqProduct,
    SeqScale,
    SeqSum,
    TranslatedToInfinity,
    UniformProduct,
    VolumeSchedule,
    default_block_lengths,
    seq_norm_trace,
)
from .states import _check_averaging_seed, average_variance, expectation, product_state

_NAMED_MATRICES = {
    "pauli1": lambda: pauli(1),
    "pauli2": lambda: pauli(2),
    "pauli3": lambda: pauli(3),
    "identity": lambda: pauli("identity"),
}


class _Problems:
    def __init__(self):
        self.items: list[str] = []

    def add(self, path: str, message: str):
        self.items.append(f"{path}: {message}")


def _is_int(value) -> bool:
    """Whether a config value is an integer; JSON's true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """Whether a config value is a finite number; NaN, Infinity, true and false are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _parse_scalar(value, errors: _Problems, path: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if all(_is_finite(x) for x in parts):
        return complex(*parts)
    errors.add(path, f"expected a finite number or [re, im], got {value!r}")
    return 0j


def _parse_matrix(spec, errors: _Problems, path: str):
    if isinstance(spec, str):
        if spec in _NAMED_MATRICES:
            return np.array(_NAMED_MATRICES[spec]())
        errors.add(path, f"unknown matrix name {spec!r}")
        return None
    if isinstance(spec, list) and spec and all(isinstance(r, list) for r in spec):
        rows = [[_parse_scalar(x, errors, f"{path}[{i}]") for x in r] for i, r in enumerate(spec)]
        if any(len(r) != len(rows) for r in rows):
            lengths = [len(r) for r in rows]
            errors.add(path, f"matrix literal must be square, got rows of lengths {lengths}")
            return None
        return np.array(rows, dtype=complex)
    errors.add(path, "expected a matrix name or a row-major array")
    return None


def _is_per_site_list(mat_spec, n_sites: int) -> bool:
    """Whether ``mat_spec`` lists one matrix per site rather than one d^k x d^k literal.

    The rows of a complex literal are lists of ``[re, im]`` pairs, so they
    look like matrices too; only the count tells them apart, since a literal
    on k sites has d^k != k rows.  A name is never a literal row.
    """
    if not isinstance(mat_spec, list) or not mat_spec:
        return False
    if isinstance(mat_spec[0], str):
        return True
    return len(mat_spec) == n_sites and all(
        isinstance(m, str) or (isinstance(m, list) and m and all(isinstance(r, list) for r in m))
        for m in mat_spec
    )


def _parse_local_operator(spec, errors: _Problems, path: str) -> LocalOperator | None:
    if not isinstance(spec, dict):
        errors.add(path, "expected an object with 'matrix' and 'sites'")
        return None
    sites = spec.get("sites")
    if not isinstance(sites, list) or not all(_is_int(s) for s in sites):
        errors.add(f"{path}.sites", "expected a list of integer sites")
        return None
    mat_spec = spec.get("matrix")
    try:
        if _is_per_site_list(mat_spec, len(sites)):
            # one matrix per site, tensored
            if len(mat_spec) != len(sites):
                errors.add(path, "per-site matrix list must match 'sites' length")
                return None
            factors = {}
            for s, m in zip(sites, mat_spec):
                mat = _parse_matrix(m, errors, f"{path}.matrix")
                if mat is None:
                    return None
                factors[s] = mat
            return from_site_factors(factors)
        mat = _parse_matrix(mat_spec, errors, f"{path}.matrix")
        if mat is None:
            return None
        return local_operator(mat, tuple(sites))
    except ContractViolation as exc:
        errors.add(path, str(exc))
        return None


def _parse_tagged(spec, errors: _Problems, path: str, kinds: dict, what: str):
    """Build what a ``{"kind": K, ...}`` spec describes, from a table of kinds.

    ``kinds`` maps each tag to a constructor and its ``(field, parser)``
    pairs, with an optional third entry as the field's default; the parsed
    fields go to the constructor in that order.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        errors.add(path, "expected an object with a 'kind' tag")
        return None
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        errors.add(f"{path}.kind", f"unknown {what} kind {kind!r}")
        return None
    build, fields = kinds[kind]
    known = len(errors.items)
    args = [
        parse(spec.get(name, *default), errors, f"{path}.{name}")
        for name, parse, *default in fields
    ]
    if len(errors.items) > known:
        return None
    try:
        return build(*args)
    except ContractViolation as exc:
        errors.add(path, str(exc))
        return None


def _parse_sequence(spec, errors: _Problems, path: str) -> ObservableSequence | None:
    return _parse_tagged(spec, errors, path, _SEQUENCE_KINDS, "sequence")


def _parse_offset(offset, errors: _Problems, path: str):
    """Site rule of a translated sequence: site max(1, N - offset), or N itself."""
    if not _is_int(offset) or offset < 0:
        errors.add(path, "expected a nonnegative integer")
        return None
    return None if offset == 0 else (lambda n: max(1, n - offset))


def _parse_block_lengths(value, errors: _Problems, path: str):
    """Block-length rule of a block product: an explicit list, or B_n = n + 1."""
    if value is None:
        return default_block_lengths
    if not (
        isinstance(value, list)
        and value
        and all(_is_int(x) and x > 0 for x in value)
        and all(a < b for a, b in zip(value, value[1:]))
    ):
        errors.add(path, "expected a strictly increasing list of positive integers")
        return None

    def rule(n, ls=tuple(value)):
        if n >= len(ls):
            raise ContractViolation(f"block length list exhausted at block {n}")
        return ls[n]

    return rule


def _parse_factor(value, errors: _Problems, path: str):
    if value == "1/N":
        return lambda n: 1.0 / n
    return _parse_scalar(value, errors, path)


_SEQUENCE_KINDS = {
    "local": (LocalEmbedSeq, (("op", _parse_local_operator),)),
    "translated": (TranslatedToInfinity, (("op", _parse_matrix), ("offset", _parse_offset, 0))),
    "gamma": (GammaSeq.from_seed, (("seed", _parse_local_operator),)),
    "uniform-product": (UniformProduct, (("op", _parse_matrix),)),
    "parity-product": (ParityProduct, (("odd", _parse_matrix), ("even", _parse_matrix))),
    "block-product": (
        BlockProduct,
        (("even", _parse_matrix), ("odd", _parse_matrix), ("lengths", _parse_block_lengths)),
    ),
    "half-chain": (HalfChain, (("op", _parse_matrix),)),
    "sum": (SeqSum, (("left", _parse_sequence), ("right", _parse_sequence))),
    "product": (SeqProduct, (("left", _parse_sequence), ("right", _parse_sequence))),
    "adjoint": (SeqAdjoint, (("inner", _parse_sequence),)),
    "scale": (SeqScale, (("factor", _parse_factor), ("inner", _parse_sequence))),
}


_NAMED_TRIG = {
    "cos_q": cl.cos_q,
    "sin_q": cl.sin_q,
    "cos_p": cl.cos_p,
    "sin_p": cl.sin_p,
}


def _parse_trig(spec, errors: _Problems, path: str):
    if isinstance(spec, dict) and "named" in spec:
        name = spec["named"]
        site = spec.get("site", 1)
        if not isinstance(name, str) or name not in _NAMED_TRIG:
            errors.add(f"{path}.named", f"unknown observable {name!r}")
            return None
        if not _is_int(site) or site < 1:
            errors.add(f"{path}.site", "expected a positive integer site")
            return None
        return _NAMED_TRIG[name](site)
    if isinstance(spec, dict) and "terms" in spec:
        if not isinstance(spec["terms"], list):
            errors.add(f"{path}.terms", "expected a list of terms")
            return None
        out = cl.TrigObservable({})
        for i, term in enumerate(spec["terms"]):
            if not isinstance(term, dict):
                errors.add(f"{path}.terms[{i}]", "expected an object")
                return None
            amp = _parse_scalar(term.get("amplitude"), errors, f"{path}.terms[{i}].amplitude")
            freqs = term.get("freqs", [])
            if not (
                isinstance(freqs, list)
                and all(
                    isinstance(f, list) and len(f) == 3 and all(_is_int(x) for x in f)
                    for f in freqs
                )
            ):
                errors.add(f"{path}.terms[{i}].freqs", "expected [[site, m, n], ...] of integers")
                return None
            try:
                out = out + cl.trig_term(amp, [tuple(f) for f in freqs])
            except ContractViolation as exc:
                errors.add(f"{path}.terms[{i}]", str(exc))
                return None
        return out
    errors.add(path, "expected {'terms': [...]} or {'named': ..., 'site': ...}")
    return None


_CLASSICAL_KINDS = {
    "classical-local": (cl.ClassicalLocalEmbed, (("f", _parse_trig),)),
    "cyclic-average": (cl.ClassicalCyclicAverage, (("f", _parse_trig),)),
    "tail-shifted": (cl.tail_sequence, (("f", _parse_trig),)),
}


def _parse_classical_sequence(spec, errors: _Problems, path: str):
    return _parse_tagged(spec, errors, path, _CLASSICAL_KINDS, "classical sequence")


def _parse_gamma_sequence(spec, errors: _Problems, path: str):
    seq = _parse_sequence(spec, errors, path)
    if seq is not None and not isinstance(seq, GammaSeq):
        errors.add(path, "gamma-bound needs a sequence of kind 'gamma'")
    return seq


def _parse_variance_seed(spec, errors: _Problems, path: str):
    op = _parse_local_operator(spec, errors, path)
    if op is not None:
        try:
            _check_averaging_seed(op)
        except ContractViolation as exc:
            errors.add(path, str(exc))
    return op


def _op_label(spec, op: LocalOperator) -> str:
    if isinstance(spec, dict) and isinstance(spec.get("label"), str):
        return spec["label"]
    sites = ",".join(map(str, op.support)) or "scalar"
    mat = spec.get("matrix") if isinstance(spec, dict) else None
    if isinstance(mat, str):
        return f"{mat}@{sites}"
    if isinstance(mat, list) and all(isinstance(m, str) for m in mat):
        return f"{'*'.join(mat)}@{sites}"
    return f"op@{sites}"


def _parse_probe(spec, errors: _Problems, path: str):
    op = _parse_local_operator(spec, errors, path)
    return None if op is None else (_op_label(spec, op), op)


def _parse_probes(spec, errors: _Problems, path: str):
    if not isinstance(spec, list):
        errors.add(path, "expected a list of local-operator specs")
        return None
    return [_parse_probe(p, errors, f"{path}[{i}]") for i, p in enumerate(spec)]


def _parse_state(spec, errors: _Problems, path: str):
    if not isinstance(spec, dict) or "rho" not in spec:
        errors.add(path, "expected {'rho': row-major matrix}")
        return None
    rho = _parse_matrix(spec["rho"], errors, f"{path}.rho")
    if rho is None:
        return None
    try:
        return product_state(rho)
    except ContractViolation as exc:
        errors.add(f"{path}.rho", str(exc))
        return None


# ---------------------------------------------------------------------------
# experiment handlers: each runs one kind and returns its series as (label,
# DecayReport) pairs, appending to the report's warnings and assertion
# failures.  Estimators are called through their module-level names so that
# wrappers installed on them see the calls.


def _run_norm(config, warnings, failures):
    trace = seq_norm_trace(config.sequence, config.schedule, **config.norm_kwargs)
    return [("norm", classify_trace(trace))]


def _run_decay(config, warnings, failures):
    rep = vanishing_test(config.sequence, config.schedule, **config.norm_kwargs)
    return [("vanishing", rep)]


def _run_equiv(config, warnings, failures):
    rep = equivalence_test(
        config.sequence, config.sequence2, config.schedule, **config.norm_kwargs
    )
    return [("difference", rep)]


def _run_commutant(config, warnings, failures):
    series = []
    results = commutant_membership(
        config.sequence, config.probes, config.schedule, **config.norm_kwargs
    )
    for res in results:
        if res.skipped:
            warnings.append(f"probe {res.label} skipped: {res.reason}")
        else:
            series.append((res.label, res.report))
    return series


def _run_gamma_bound(config, warnings, failures):
    rep = gamma_bound_check(
        config.sequence, config.probe[1], config.schedule, **config.norm_kwargs
    )
    if rep.bound_violations:
        failures.append(f"commutator bound violated at N in {list(rep.bound_violations)}")
    return [("commutator", rep)]


def _run_expect(config, warnings, failures):
    trace = config.schedule.trace(
        lambda n: TracePoint(n, expectation(config.state, config.sequence.eval(n), n))
    )
    series = []
    for part, of in (("re", lambda v: v.real), ("im", lambda v: v.imag)):
        points = tuple(replace(p, value=float(of(p.value))) for p in trace)
        # classified on the moduli, reported with their signs
        rep = classify_trace([replace(p, value=abs(p.value)) for p in points])
        series.append((f"expectation.{part}", replace(rep, points=points)))
    return series


def _run_variance(config, warnings, failures):
    trace = config.schedule.trace(
        lambda n: TracePoint(n, average_variance(config.state, config.observable, n))
    )
    return [("variance", classify_trace(trace))]


def _run_classical_decay(config, warnings, failures):
    return [("bracket.l1", cl.bracket_decay_test(config.sequence, config.probe, config.schedule))]


def _run_mutual(config, warnings, failures):
    rep = mutual_commutator_trace(
        config.sequence, config.sequence2, config.schedule, **config.norm_kwargs
    )
    if rep.bound_violations:
        failures.append(
            f"constant-trace reference violated at N in {list(rep.bound_violations)}"
        )
    return [("commutator", rep)]


@dataclass(frozen=True)
class Experiment:
    """One experiment kind: the config fields it reads, and how it runs."""

    # config fields as (name, parser) or (name, parser, default): the parser
    # maps (spec, errors, path) -> value; only a field with a default, the
    # ExperimentConfig field's own, may be left out
    fields: tuple[tuple, ...]
    # (config, warnings, failures) -> list of (label, DecayReport) series
    handler: Callable
    # the fewest schedule points; kinds that accept a single volume take 1
    min_points: int = MIN_POINTS


_SEQUENCE = ("sequence", _parse_sequence)
_SEQUENCE2 = ("sequence2", _parse_sequence)
_STATE = ("state", _parse_state)

EXPERIMENTS = {
    "norm": Experiment((_SEQUENCE,), _run_norm, 1),
    "decay": Experiment((_SEQUENCE,), _run_decay),
    "equiv": Experiment((_SEQUENCE, _SEQUENCE2), _run_equiv),
    "commutant": Experiment((_SEQUENCE, ("probes", _parse_probes, None)), _run_commutant),
    "gamma-bound": Experiment(
        (("sequence", _parse_gamma_sequence), ("probe", _parse_probe)), _run_gamma_bound
    ),
    "expect": Experiment((_SEQUENCE, _STATE), _run_expect, 1),
    "variance": Experiment((_STATE, ("observable", _parse_variance_seed)), _run_variance, 1),
    "classical-decay": Experiment(
        (("sequence", _parse_classical_sequence), ("probe", _parse_trig)), _run_classical_decay
    ),
    "mutual": Experiment((_SEQUENCE, _SEQUENCE2), _run_mutual, 1),
}


@dataclass
class ExperimentConfig:
    kind: str
    schedule: VolumeSchedule
    method: str
    seed: int
    dense_cap: int
    echo: dict
    # each holds what the kind's parser for that field returned
    sequence: object = None
    sequence2: ObservableSequence | None = None
    probe: object = None
    probes: list[tuple[str, LocalOperator]] | None = None
    observable: LocalOperator | None = None
    state: object = None
    assert_spec: dict = field(default_factory=dict)
    out_format: str = "json"
    out_path: str | None = None

    @property
    def norm_kwargs(self) -> dict:
        return dict(method=self.method, dense_cap=self.dense_cap, seed=self.seed)


def _decode(text: str):
    """The JSON value of a config's text; raises :class:`ConfigError` if there is none."""
    try:
        return json.loads(text)
    # bad JSON, an integer too long to convert, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError([f"config: not valid JSON ({exc})"]) from exc


def parse_config(text_or_dict) -> ExperimentConfig:
    """Validate a config; raises :class:`ConfigError` listing every problem."""
    errors = _Problems()
    raw = text_or_dict if isinstance(text_or_dict, dict) else _decode(text_or_dict)
    if not isinstance(raw, dict):
        raise ConfigError(["config: top level must be an object"])

    kind = raw.get("experiment")
    experiment = EXPERIMENTS.get(kind) if isinstance(kind, str) else None
    if experiment is None:
        errors.add("experiment", f"unknown kind {kind!r}; one of {', '.join(EXPERIMENTS)}")

    schedule = None
    pts = raw.get("schedule")
    if not isinstance(pts, list) or not all(_is_int(p) for p in pts):
        errors.add("schedule", "expected a list of integers")
    else:
        try:
            schedule = VolumeSchedule(tuple(pts))
        except ContractViolation as exc:
            errors.add("schedule", str(exc))
    if schedule is not None and experiment is not None:
        if len(schedule.points) < experiment.min_points:
            errors.add(
                "schedule", f"{kind} experiments need at least {experiment.min_points} points"
            )

    method = raw.get("method", "auto")
    if method not in NORM_METHODS:
        errors.add("method", f"expected {'|'.join(NORM_METHODS)}, got {method!r}")
        method = "auto"

    seed = raw.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        errors.add("seed", "expected a nonnegative integer")
        seed = 0

    dense_cap = raw.get("dense_cap", DENSE_DIM_CAP)
    if not _is_int(dense_cap) or dense_cap < 2:
        errors.add("dense_cap", "expected an integer >= 2")
        dense_cap = DENSE_DIM_CAP

    cfg = ExperimentConfig(
        kind=kind,
        schedule=schedule or VolumeSchedule((1,)),
        method=method,
        seed=seed,
        dense_cap=dense_cap,
        echo=raw,
    )

    if experiment is not None:
        for name, parse, *default in experiment.fields:
            if name in raw:
                try:
                    setattr(cfg, name, parse(raw[name], errors, name))
                except RecursionError:  # a sequence nested past the recursion limit
                    errors.add(name, "nested too deeply")
            elif not default:
                errors.add(name, f"required for {kind!r} experiments")

    assert_spec = raw.get("assert", {})
    if not isinstance(assert_spec, dict):
        errors.add("assert", "expected an object")
    else:
        cfg.assert_spec = assert_spec
        cls = assert_spec.get("classification")
        if cls is not None and cls not in CLASSIFICATIONS:
            errors.add("assert.classification", f"unknown classification {cls!r}")
        target = assert_spec.get("series")
        if target is not None and not isinstance(target, str):
            errors.add("assert.series", f"expected a series label, got {target!r}")
        converged = assert_spec.get("all_converged")
        if converged is not None and not isinstance(converged, bool):
            errors.add("assert.all_converged", f"expected true or false, got {converged!r}")
        cap = assert_spec.get("max_value")
        if cap is not None and not _is_finite(cap):
            errors.add("assert.max_value", f"expected a finite number, got {cap!r}")

    output = raw.get("output", {})
    if isinstance(output, dict):
        fmt = output.get("format", "json")
        if fmt not in FORMATS:
            errors.add("output.format", f"expected {'|'.join(FORMATS)}, got {fmt!r}")
        else:
            cfg.out_format = fmt
        path = output.get("path")
        if path is not None and not isinstance(path, str):
            errors.add("output.path", f"expected a file path, got {path!r}")
        else:
            cfg.out_path = path
    elif output is not None:
        errors.add("output", "expected an object")

    if errors.items:
        raise ConfigError(errors.items)
    return cfg


def run(config: ExperimentConfig) -> tuple[Report, list[str]]:
    """Execute one experiment; returns the report and assertion failures."""
    warnings: list[str] = []
    failures: list[str] = []
    series = EXPERIMENTS[config.kind].handler(config, warnings, failures)

    spec = config.assert_spec
    target = spec.get("series")
    if target is not None and all(label != target for label, _ in series):
        failures.append(f"assert.series: no series labeled {target!r}")
    # a check over no series at all would pass without looking at anything
    want = spec.get("classification")
    if not series and (
        want is not None or spec.get("all_converged") or spec.get("max_value") is not None
    ):
        failures.append("assert: no series to check")
    if want is not None:
        for label, rep in series:
            if target in (None, label) and rep.classification != want:
                failures.append(
                    f"series {label}: classification {rep.classification!r}, expected {want!r}"
                )
    if spec.get("all_converged"):
        for label, rep in series:
            bad = [p.n for p in rep.points if not p.converged]
            if bad:
                failures.append(f"series {label}: unconverged at N in {bad}")
    if spec.get("max_value") is not None:
        cap = float(spec["max_value"])
        for label, rep in series:
            over = [p.n for p in rep.points if p.value > cap]
            if over:
                failures.append(f"series {label}: value above {cap} at N in {over}")

    meta = {
        "experiment": config.kind,
        "seed": config.seed,
        "method": config.method,
        "dense_cap": config.dense_cap,
        "echo": config.echo,
        "warnings": warnings,
        "assertions": {"passed": not failures, "failures": failures},
    }
    report = Report(meta, list(config.schedule.points), series)
    return report, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spintail", description="run volume-schedule experiments from a config file"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--format", choices=FORMATS, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--dense-cap", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_val = sub.add_parser("validate", help="validate a config, reporting every problem")
    p_val.add_argument("config")
    sub.add_parser("schema", help="print the report JSON schema")

    args = parser.parse_args(argv)

    if args.command == "schema":
        print(json.dumps(REPORT_SCHEMA, sort_keys=True, indent=2))
        return 0

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        try:
            parse_config(text)
        except ConfigError as exc:
            for p in exc.problems:
                print(f"invalid: {p}", file=sys.stderr)
            return 1
        print("ok")
        return 0

    try:
        raw = _decode(text)
        if isinstance(raw, dict):
            if args.seed is not None:
                raw["seed"] = args.seed
            if args.dense_cap is not None:
                raw["dense_cap"] = args.dense_cap
            # a null output counts as absent, as in parse_config; any other
            # non-object is left for parse_config to report
            out = {} if raw.get("output") is None else raw["output"]
            if isinstance(out, dict) and (args.format is not None or args.out is not None):
                out = dict(out)
                if args.format is not None:
                    out["format"] = args.format
                if args.out is not None:
                    out["path"] = args.out
                raw["output"] = out
        config = parse_config(raw)
    except ConfigError as exc:
        for p in exc.problems:
            print(f"invalid: {p}", file=sys.stderr)
        return 1

    try:
        report, failures = run(config)
    except (ContractViolation, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    payload = emit(report, config.out_format)
    if config.out_path:
        try:
            with open(config.out_path, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.buffer.write(payload)

    if os.environ.get("SPINTAIL_VERBOSE", "") not in ("", "0"):
        for label, rep in report.series:
            total = sum(p.seconds for p in rep.points)
            print(
                f"[timing] {label}: {total:.3f}s over {len(rep.points)} points",
                file=sys.stderr,
            )
        for label, rep in report.series:
            for p in rep.points:
                print(f"[timing] {label} N={p.n}: {p.seconds:.4f}s", file=sys.stderr)

    if failures:
        for f in failures:
            print(f"assertion failed: {f}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
