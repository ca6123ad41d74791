"""Configuration-driven experiment runner.

A config is one JSON file.  Common fields::

    {
      "experiment": "gamma-bound",      # norm | decay | equiv | commutant |
                                        # gamma-bound | expect | variance |
                                        # classical-decay | mutual
      "schedule": [4, 6, 8, 10],        # strictly increasing volumes
      "method": "auto",                 # dense | iterative | auto
      "seed": 42,
      "sequence": {...},                # see sequence grammar below
      "sequence2": {...},               # equiv / mutual only
      "probe": {...}, "probes": [...],  # local-operator specs
      "observable": {...},              # variance only (single-site op)
      "state": {"rho": [[0.8, 0], [0, 0.2]]},
      "assert": {"classification": "vanishing", "all_converged": true},
      "output": {"format": "json", "path": "out.json"}
    }

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

Exit codes: 0 all experiment assertions passed, 2 an assertion failed,
1 configuration or runtime error.  Identical (config, seed) pairs produce
byte-identical JSON; wall-times go to stderr with SPINTAIL_VERBOSE=1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import classical as cl
from .asymptotics import (
    TracePoint,
    classify_trace,
    commutant_membership,
    equivalence_test,
    gamma_bound_check,
    mutual_commutator_trace,
    vanishing_test,
)
from .errors import CapacityError, ConfigError, ContractViolation
from .localops import LocalOperator, from_site_factors, local_operator
from .matrices import DENSE_DIM_CAP, pauli
from .report import REPORT_SCHEMA, Report, Series, emit, series_from_decay
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
    seq_norm_trace,
)
from .states import average_variance, expectation, product_state

EXPERIMENT_KINDS = (
    "norm",
    "decay",
    "equiv",
    "commutant",
    "gamma-bound",
    "expect",
    "variance",
    "classical-decay",
    "mutual",
)

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


def _parse_scalar(value, errors: _Problems, path: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(x, (int, float)) for x in value)
    ):
        return complex(value[0], value[1])
    errors.add(path, f"expected a number or [re, im], got {value!r}")
    return 0j


def _parse_matrix(spec, errors: _Problems, path: str):
    if isinstance(spec, str):
        if spec in _NAMED_MATRICES:
            return np.array(_NAMED_MATRICES[spec]())
        errors.add(path, f"unknown matrix name {spec!r}")
        return None
    if isinstance(spec, list) and spec and all(isinstance(r, list) for r in spec):
        rows = []
        for i, r in enumerate(spec):
            rows.append([_parse_scalar(x, errors, f"{path}[{i}]") for x in r])
        mat = np.array(rows, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            errors.add(path, f"matrix literal must be square, got shape {mat.shape}")
            return None
        return mat
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
    if not isinstance(sites, list) or not all(isinstance(s, int) for s in sites):
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


def _parse_sequence(spec, errors: _Problems, path: str) -> ObservableSequence | None:
    if not isinstance(spec, dict) or "kind" not in spec:
        errors.add(path, "expected an object with a 'kind' tag")
        return None
    kind = spec["kind"]
    try:
        if kind == "local":
            op = _parse_local_operator(spec.get("op"), errors, f"{path}.op")
            return LocalEmbedSeq(op) if op is not None else None
        if kind == "translated":
            mat = _parse_matrix(spec.get("op"), errors, f"{path}.op")
            if mat is None:
                return None
            offset = spec.get("offset", 0)
            if not isinstance(offset, int) or offset < 0:
                errors.add(f"{path}.offset", "expected a nonnegative integer")
                return None
            rule = None if offset == 0 else (lambda n, k=offset: max(1, n - k))
            return TranslatedToInfinity(mat, rule)
        if kind == "gamma":
            op = _parse_local_operator(spec.get("seed"), errors, f"{path}.seed")
            return GammaSeq.from_seed(op) if op is not None else None
        if kind == "uniform-product":
            mat = _parse_matrix(spec.get("op"), errors, f"{path}.op")
            return UniformProduct(mat) if mat is not None else None
        if kind == "parity-product":
            odd = _parse_matrix(spec.get("odd"), errors, f"{path}.odd")
            even = _parse_matrix(spec.get("even"), errors, f"{path}.even")
            if odd is None or even is None:
                return None
            return ParityProduct(odd, even)
        if kind == "block-product":
            even = _parse_matrix(spec.get("even"), errors, f"{path}.even")
            odd = _parse_matrix(spec.get("odd"), errors, f"{path}.odd")
            if even is None or odd is None:
                return None
            lengths = spec.get("lengths")
            if lengths is None:
                return BlockProduct(even, odd)
            if not (
                isinstance(lengths, list)
                and lengths
                and all(isinstance(x, int) and x > 0 for x in lengths)
                and all(a < b for a, b in zip(lengths, lengths[1:]))
            ):
                errors.add(
                    f"{path}.lengths",
                    "expected a strictly increasing list of positive integers",
                )
                return None

            def rule(n, ls=tuple(lengths)):
                if n >= len(ls):
                    raise ContractViolation(
                        f"block length list exhausted at block {n}"
                    )
                return ls[n]

            return BlockProduct(even, odd, rule)
        if kind == "half-chain":
            mat = _parse_matrix(spec.get("op"), errors, f"{path}.op")
            return HalfChain(mat) if mat is not None else None
        if kind in ("sum", "product"):
            left = _parse_sequence(spec.get("left"), errors, f"{path}.left")
            right = _parse_sequence(spec.get("right"), errors, f"{path}.right")
            if left is None or right is None:
                return None
            return SeqSum(left, right) if kind == "sum" else SeqProduct(left, right)
        if kind == "adjoint":
            inner = _parse_sequence(spec.get("inner"), errors, f"{path}.inner")
            return SeqAdjoint(inner) if inner is not None else None
        if kind == "scale":
            inner = _parse_sequence(spec.get("inner"), errors, f"{path}.inner")
            if inner is None:
                return None
            factor = spec.get("factor")
            if factor == "1/N":
                return SeqScale(lambda n: 1.0 / n, inner)
            return SeqScale(_parse_scalar(factor, errors, f"{path}.factor"), inner)
    except ContractViolation as exc:
        errors.add(path, str(exc))
        return None
    errors.add(f"{path}.kind", f"unknown sequence kind {kind!r}")
    return None


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
        if name not in _NAMED_TRIG:
            errors.add(f"{path}.named", f"unknown observable {name!r}")
            return None
        if not isinstance(site, int) or site < 1:
            errors.add(f"{path}.site", "expected a positive integer site")
            return None
        return _NAMED_TRIG[name](site)
    if isinstance(spec, dict) and "terms" in spec:
        out = cl.TrigObservable({})
        for i, term in enumerate(spec["terms"]):
            if not isinstance(term, dict):
                errors.add(f"{path}.terms[{i}]", "expected an object")
                return None
            amp = _parse_scalar(term.get("amplitude"), errors, f"{path}.terms[{i}].amplitude")
            freqs = term.get("freqs", [])
            if not (
                isinstance(freqs, list)
                and all(isinstance(f, list) and len(f) == 3 for f in freqs)
            ):
                errors.add(f"{path}.terms[{i}].freqs", "expected [[site, m, n], ...]")
                return None
            try:
                out = out + cl.trig_term(amp, [tuple(f) for f in freqs])
            except ContractViolation as exc:
                errors.add(f"{path}.terms[{i}]", str(exc))
                return None
        return out
    errors.add(path, "expected {'terms': [...]} or {'named': ..., 'site': ...}")
    return None


def _parse_classical_sequence(spec, errors: _Problems, path: str):
    if not isinstance(spec, dict) or "kind" not in spec:
        errors.add(path, "expected an object with a 'kind' tag")
        return None
    kind = spec["kind"]
    f = _parse_trig(spec.get("f"), errors, f"{path}.f")
    if f is None:
        return None
    if kind == "classical-local":
        return cl.ClassicalLocalEmbed(f)
    if kind == "cyclic-average":
        return cl.ClassicalCyclicAverage(f)
    if kind == "tail-shifted":
        return cl.tail_sequence(f)
    errors.add(f"{path}.kind", f"unknown classical sequence kind {kind!r}")
    return None


@dataclass
class ExperimentConfig:
    kind: str
    schedule: VolumeSchedule
    method: str
    seed: int
    dense_cap: int
    echo: dict
    sequence: ObservableSequence | None = None
    sequence2: ObservableSequence | None = None
    probe: tuple[str, LocalOperator] | None = None
    probes: list[tuple[str, LocalOperator]] | None = None
    observable: LocalOperator | None = None
    state: object = None
    classical_sequence: object = None
    classical_probe: object = None
    assert_spec: dict = field(default_factory=dict)
    out_format: str = "json"
    out_path: str | None = None


def parse_config(text_or_dict) -> ExperimentConfig:
    """Validate a config; raises :class:`ConfigError` listing every problem."""
    errors = _Problems()
    if isinstance(text_or_dict, dict):
        raw = text_or_dict
    else:
        try:
            raw = json.loads(text_or_dict)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config: not valid JSON ({exc})"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config: top level must be an object"])

    kind = raw.get("experiment")
    if kind not in EXPERIMENT_KINDS:
        errors.add("experiment", f"unknown kind {kind!r}; one of {', '.join(EXPERIMENT_KINDS)}")
        kind = None

    schedule = None
    pts = raw.get("schedule")
    if not isinstance(pts, list) or not all(isinstance(p, int) for p in pts):
        errors.add("schedule", "expected a list of integers")
    else:
        try:
            schedule = VolumeSchedule(tuple(pts))
        except ContractViolation as exc:
            errors.add("schedule", str(exc))
    fit_kinds = ("decay", "equiv", "commutant", "gamma-bound", "classical-decay")
    if schedule is not None and kind in fit_kinds and len(schedule.points) < 4:
        errors.add("schedule", f"{kind} experiments need at least 4 points")

    method = raw.get("method", "auto")
    if method not in ("dense", "iterative", "auto"):
        errors.add("method", f"expected dense|iterative|auto, got {method!r}")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        errors.add("seed", "expected an integer")
        seed = 0

    dense_cap = raw.get("dense_cap", DENSE_DIM_CAP)
    if not isinstance(dense_cap, int) or dense_cap < 2:
        errors.add("dense_cap", "expected an integer >= 2")
        dense_cap = DENSE_DIM_CAP

    cfg = ExperimentConfig(
        kind=kind or "norm",
        schedule=schedule or VolumeSchedule((1,)),
        method=method if method in ("dense", "iterative", "auto") else "auto",
        seed=seed,
        dense_cap=dense_cap,
        echo=raw,
    )

    def need(fld):
        if fld not in raw:
            errors.add(fld, f"required for {kind!r} experiments")
            return False
        return True

    if kind in ("norm", "decay", "equiv", "commutant", "gamma-bound", "expect", "mutual"):
        if need("sequence"):
            cfg.sequence = _parse_sequence(raw["sequence"], errors, "sequence")
    if kind in ("equiv", "mutual"):
        if need("sequence2"):
            cfg.sequence2 = _parse_sequence(raw["sequence2"], errors, "sequence2")
    if kind == "gamma-bound":
        if cfg.sequence is not None and not isinstance(cfg.sequence, GammaSeq):
            errors.add("sequence", "gamma-bound needs a sequence of kind 'gamma'")
        if need("probe"):
            op = _parse_local_operator(raw["probe"], errors, "probe")
            if op is not None:
                cfg.probe = (_op_label(raw["probe"], op), op)
    if kind == "commutant" and "probes" in raw:
        cfg.probes = []
        if not isinstance(raw["probes"], list):
            errors.add("probes", "expected a list of local-operator specs")
        else:
            for i, p in enumerate(raw["probes"]):
                op = _parse_local_operator(p, errors, f"probes[{i}]")
                if op is not None:
                    cfg.probes.append((_op_label(p, op), op))
    if kind in ("expect", "variance"):
        if need("state"):
            spec = raw["state"]
            if not isinstance(spec, dict) or "rho" not in spec:
                errors.add("state", "expected {'rho': row-major matrix}")
            else:
                rho = _parse_matrix(spec["rho"], errors, "state.rho")
                if rho is not None:
                    try:
                        cfg.state = product_state(rho)
                    except ContractViolation as exc:
                        errors.add("state.rho", str(exc))
    if kind == "variance":
        if need("observable"):
            cfg.observable = _parse_local_operator(raw["observable"], errors, "observable")
    if kind == "classical-decay":
        if need("sequence"):
            cfg.classical_sequence = _parse_classical_sequence(
                raw["sequence"], errors, "sequence"
            )
        if need("probe"):
            cfg.classical_probe = _parse_trig(raw["probe"], errors, "probe")

    assert_spec = raw.get("assert", {})
    if not isinstance(assert_spec, dict):
        errors.add("assert", "expected an object")
    else:
        cfg.assert_spec = assert_spec
        cls = assert_spec.get("classification")
        if cls is not None and cls not in ("vanishing", "bounded_nonvanishing", "unconverged"):
            errors.add("assert.classification", f"unknown classification {cls!r}")

    output = raw.get("output", {})
    if isinstance(output, dict):
        fmt = output.get("format", "json")
        if fmt not in ("json", "csv"):
            errors.add("output.format", f"expected json|csv, got {fmt!r}")
        else:
            cfg.out_format = fmt
        cfg.out_path = output.get("path")
    elif output is not None:
        errors.add("output", "expected an object")

    if errors.items:
        raise ConfigError(errors.items)
    return cfg


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


def run(config: ExperimentConfig) -> tuple[Report, list[str]]:
    """Execute one experiment; returns the report and assertion failures."""
    kind = config.kind
    schedule = config.schedule
    warnings: list[str] = []
    failures: list[str] = []
    series: list[Series] = []
    kw = dict(dense_cap=config.dense_cap, seed=config.seed)

    if kind == "norm":
        trace = seq_norm_trace(config.sequence, schedule, config.method, **kw)
        pts = [TracePoint(n, r.value, r.converged) for n, r in trace]
        series.append(series_from_decay("norm", classify_trace(pts)))
    elif kind == "decay":
        rep = vanishing_test(config.sequence, schedule, method=config.method, **kw)
        series.append(series_from_decay("vanishing", rep))
    elif kind == "equiv":
        rep = equivalence_test(
            config.sequence, config.sequence2, schedule, method=config.method, **kw
        )
        series.append(series_from_decay("difference", rep))
    elif kind == "commutant":
        results = commutant_membership(
            config.sequence, config.probes, schedule, method=config.method, **kw
        )
        for res in results:
            if res.skipped:
                warnings.append(f"probe {res.label} skipped: {res.reason}")
            else:
                series.append(series_from_decay(res.label, res.report))
    elif kind == "gamma-bound":
        rep = gamma_bound_check(
            config.sequence.spec,
            config.probe[1],
            schedule,
            method=config.method,
            **kw,
        )
        series.append(series_from_decay("commutator", rep))
        if rep.bound_violations:
            failures.append(
                f"commutator bound violated at N in {list(rep.bound_violations)}"
            )
    elif kind == "mutual":
        rep = mutual_commutator_trace(
            config.sequence, config.sequence2, schedule, method=config.method, **kw
        )
        series.append(series_from_decay("commutator", rep))
        if rep.bound_violations:
            failures.append(
                f"constant-trace reference violated at N in {list(rep.bound_violations)}"
            )
    elif kind == "expect":
        re_pts, im_pts, secs = [], [], []
        for n in schedule.points:
            t0 = time.perf_counter()
            val = expectation(config.state, config.sequence.eval(n), n)
            secs.append(time.perf_counter() - t0)
            re_pts.append(TracePoint(n, float(val.real)))
            im_pts.append(TracePoint(n, float(val.imag)))
        for label, pts in (("expectation.re", re_pts), ("expectation.im", im_pts)):
            mag = [TracePoint(p.n, abs(p.value), p.converged) for p in pts]
            rep = classify_trace(mag)
            ser = series_from_decay(label, rep)
            ser.points = [
                {"n": p.n, "value": p.value, "converged": p.converged} for p in pts
            ]
            ser.point_seconds = list(secs)
            series.append(ser)
    elif kind == "variance":
        pts, secs = [], []
        for n in schedule.points:
            t0 = time.perf_counter()
            val = average_variance(config.state, config.observable, n)
            secs.append(time.perf_counter() - t0)
            pts.append(TracePoint(n, val))
        rep = classify_trace(pts)
        ser = series_from_decay("variance", rep)
        ser.point_seconds = list(secs)
        series.append(ser)
    elif kind == "classical-decay":
        rep = cl.bracket_decay_test(
            config.classical_sequence, config.classical_probe, schedule
        )
        series.append(series_from_decay("bracket.l1", rep))
    else:  # pragma: no cover - parse_config rejects unknown kinds
        raise ContractViolation(f"unhandled experiment kind {kind!r}")

    spec = config.assert_spec
    if "classification" in spec:
        want = spec["classification"]
        target = spec.get("series")
        checked = [s for s in series if target is None or s.label == target]
        if target is not None and not checked:
            failures.append(f"assert.series: no series labeled {target!r}")
        for s in checked:
            if s.classification != want:
                failures.append(
                    f"series {s.label}: classification {s.classification!r}, "
                    f"expected {want!r}"
                )
    if spec.get("all_converged"):
        for s in series:
            bad = [p["n"] for p in s.points if not p["converged"]]
            if bad:
                failures.append(f"series {s.label}: unconverged at N in {bad}")
    if "max_value" in spec:
        cap = float(spec["max_value"])
        for s in series:
            over = [p["n"] for p in s.points if p["value"] > cap]
            if over:
                failures.append(f"series {s.label}: value above {cap} at N in {over}")

    meta = {
        "experiment": kind,
        "seed": config.seed,
        "method": config.method,
        "dense_cap": config.dense_cap,
        "echo": config.echo,
        "warnings": warnings,
        "assertions": {"passed": not failures, "failures": failures},
    }
    report = Report(meta, list(schedule.points), series)
    return report, failures


def _verbose() -> bool:
    return os.environ.get("SPINTAIL_VERBOSE", "") not in ("", "0")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spintail", description="run volume-schedule experiments from a config file"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--format", choices=("json", "csv"), default=None)
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
        text = open(args.config, "r", encoding="utf-8").read()
    except OSError as exc:
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
        raw = json.loads(text)
        if isinstance(raw, dict):
            if args.seed is not None:
                raw["seed"] = args.seed
            if args.dense_cap is not None:
                raw["dense_cap"] = args.dense_cap
            if args.format is not None or args.out is not None:
                out = dict(raw.get("output", {}))
                if args.format is not None:
                    out["format"] = args.format
                if args.out is not None:
                    out["path"] = args.out
                raw["output"] = out
        config = parse_config(raw)
    except (ConfigError, json.JSONDecodeError) as exc:
        problems = exc.problems if isinstance(exc, ConfigError) else [str(exc)]
        for p in problems:
            print(f"invalid: {p}", file=sys.stderr)
        return 1

    try:
        report, failures = run(config)
    except (ContractViolation, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    payload = emit(report, config.out_format)
    if config.out_path:
        with open(config.out_path, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)

    if _verbose():
        for s in report.series:
            total = sum(s.point_seconds)
            print(
                f"[timing] {s.label}: {total:.3f}s over {len(s.points)} points",
                file=sys.stderr,
            )
        for s in report.series:
            for p, sec in zip(s.points, s.point_seconds):
                print(f"[timing] {s.label} N={p['n']}: {sec:.4f}s", file=sys.stderr)

    if failures:
        for f in failures:
            print(f"assertion failed: {f}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
