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
up to a measured crossover of the compacted dimension, and Lanczos above it;
the crossover is ``localops._AUTO_DENSE_DIM_COMPLEX`` for a complex sum and
``localops._AUTO_DENSE_DIM_REAL`` for a real one.  ``dense_cap`` caps the
matrices a norm builds, and a cap below the crossover moves ``auto`` to
Lanczos sooner; the ``localops.norm`` docstring states this cap and the ones
on what products and commutators densify.

A null value counts as absent, for every key of every object: the top level,
``assert``, ``output`` and each nested spec (a sequence, a local operator, a
classical observable or one of its terms, a state).  A key an object does not
read is a configuration error at its path, and so is one it requires and
lacks.  ``assert.series`` narrows only ``classification``; ``all_converged``
and ``max_value`` read every series.

Each entry of :data:`EXPERIMENTS` names the fields its kind requires, how
each is parsed, the fewest schedule points it accepts and the handler that
runs it.  The fields are ``sequence`` and ``sequence2`` (see the sequence
grammar below), ``probe`` and ``probes`` (local-operator specs, or a
classical observable), ``observable`` (a single-site local operator) and
``state`` (``{"rho": MAT}``, one site's density matrix).

Sequence grammar, one for both algebras (a tree of kind tags)::

    {"kind": "local", "op": OP}
    {"kind": "translated", "op": MAT, "offset": 0}     # site max(1, N-offset)
    {"kind": "gamma", "seed": OP}
    {"kind": "uniform-product", "op": MAT}
    {"kind": "parity-product", "odd": MAT, "even": MAT}
    {"kind": "block-product", "even": MAT, "odd": MAT, "lengths": [1,2,3,...]}
    {"kind": "half-chain", "op": MAT}
    {"kind": "classical-local"|"cyclic-average"|"tail-shifted", "f": TRIG}
    {"kind": "sum"|"product", "left": SEQ, "right": SEQ}
    {"kind": "adjoint", "inner": SEQ}
    {"kind": "scale", "factor": 0.5 | [re, im] | "1/N", "inner": SEQ}

Local operators OP are ``{"matrix": MAT, "sites": [s...]}`` where MAT is a
named constant (pauli1, pauli2, pauli3, identity), an explicit row-major
array with entries ``x`` or ``[re, im]``, or a list of such matrices (one
per site, tensored).  A list is read per-site when it starts with a name, or
when it holds exactly one matrix per site; otherwise it is one d^k x d^k
literal.  A probe spec may also carry a string ``"label"``, which names its
series in ``commutant``; ``gamma-bound`` accepts one but always names its
series ``commutator``.  No other local operator takes one.  Classical
observables TRIG are ``{"terms": [{"amplitude": A, "freqs": [[site, m, n],
...]}, ...]}`` or the shorthand ``{"named": "cos_q"|"sin_q"|"cos_p"|"sin_p",
"site": 1}``.  ``classical-local`` and ``cyclic-average`` build
``LocalEmbedSeq`` and ``GammaSeq`` on TRIG, which, unlike ``gamma``'s seed, is
not moved to site 1.  A sequence's site dimension is read from its matrices
(OP acts on qubits), and a sequence of TRIG values has none.  ``sum`` and
``scale`` take either algebra, ``product`` and ``adjoint`` quantum sequences
only.  ``classical-decay`` reads a classical sequence, every other kind
sequences of site dimension 2.

Exit codes: 0 all experiment assertions passed, 2 an assertion failed (a
check over a report with no series, or an ``assert.series`` that names none,
fails too, and so does a point above its series' bound, as ``series LABEL:
bound violated at N in [...]``), 1 configuration or runtime error, or a bad
command line (an unknown flag, or a flag value argparse refuses, after the
usage message on stderr).  Identical
(config, seed) pairs produce byte-identical JSON; wall-times go to stderr with
SPINTAIL_VERBOSE=1, each point's line ending with the route of a norm point
(``TracePoint.route``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

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
from .localops import NORM_METHODS, from_site_factors, is_integer, local_operator
from .matrices import DENSE_DIM_CAP, pauli
from .report import FORMATS, REPORT_SCHEMA, Report, emit
from .sequences import (
    BlockProduct,
    GammaSeq,
    HalfChain,
    LocalEmbedSeq,
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

_NAMED_MATRICES = {"pauli1": 1, "pauli2": 2, "pauli3": 3, "identity": "identity"}


class _Problems(list):
    def add(self, path: str, message: str):
        self.append(f"{path}: {message}")

    def attempt(self, path: str, build: Callable, *args):
        """``build(*args)``, or None with its :class:`ContractViolation` added at ``path``."""
        try:
            return build(*args)
        except ContractViolation as exc:
            self.add(path, str(exc))
            return None


@dataclass(frozen=True)
class _Key:
    """A config value valid or not on its own; as a parser it reports an invalid one as None."""

    valid: Callable  # value -> bool
    problem: str  # the problem of an invalid value; {!r} stands for the value
    # an assert key's check, (value, label, DecayReport) -> failure or a false value
    check: Callable | None = None
    targeted: bool = False  # whether assert.series narrows the check

    def __call__(self, value, errors: _Problems, path: str):
        if self.valid(value):
            return value
        errors.add(path, self.problem.format(value))
        return None


def _one_of(options, **check) -> _Key:
    return _Key(lambda v: v in options, f"expected {'|'.join(options)}, got {{!r}}", **check)


def _raw(value, errors: _Problems, path: str):
    """A value its object parses together with its other keys."""
    return value


def _unknown_keys(spec: dict, known, errors: _Problems, prefix: str, at: int):
    """Report the members of ``spec`` not in ``known``, inserted at ``errors[at]``."""
    unknown = _Problems()
    for name in spec:
        if name not in known:
            unknown.add(f"{prefix}{name}", f"unknown key; expected one of {', '.join(known)}")
    errors[at:at] = unknown


def _fields(spec, errors: _Problems, path: str, rows) -> dict | None:
    """The value of each row's key of the object ``spec``; None if it is no object.

    Every config object is read here, by one rule.  A row is ``(key, parser)``
    or ``(key, parser, default)``, the default already parsed.  A null member
    is absent (:func:`_decode` drops it); an absent key takes its default, or
    is reported required and reads as None; any other key is reported unknown.
    ``rows`` may be a function of the object giving its rows and the members
    they read, as a tag picks them (:func:`_tagged`).
    """
    if not isinstance(spec, dict):
        errors.add(path, "expected an object")
        return None
    if callable(rows):
        rows, spec = rows(spec)
    prefix = f"{path}." if path else ""
    values, at, read = {}, len(errors), 0
    for row in rows:
        name = row[0]
        if name in spec:
            read += 1
            try:
                values[name] = row[1](spec[name], errors, prefix + name)
            except RecursionError:  # a sequence nested past the recursion limit
                if path:
                    raise  # reported once, at its top-level key
                errors.add(name, "nested too deeply")
        elif len(row) > 2:
            values[name] = row[2]
        else:
            values[name] = None
            errors.add(prefix + name, "required")
    if read < len(spec):  # a member no row reads, reported before the values' problems
        _unknown_keys(spec, [row[0] for row in rows], errors, prefix, at)
    return values


def _tagged(spec, errors: _Problems, path: str, table: dict, common: tuple):
    """``(entry, values)`` of a tagged object: the entry of ``table`` its tag names,
    or None, and the values of the rows after the tag.  Its rows are ``common``, led
    by the tag's, then those of the entry (a constructor or handler, then its rows);
    with no such entry, only ``common`` is read."""
    tag, key = common[0]

    def rows(spec):
        if key.valid(spec.get(tag)):
            return (*common, *table[spec[tag]][1]), spec
        return common, {name: spec[name] for name, *_ in common if name in spec}

    values = _fields(spec, errors, path, rows)
    return (None, None) if values is None else (table.get(values.pop(tag)), values)


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
            return np.array(pauli(_NAMED_MATRICES[spec]))
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


def _integers(value) -> bool:
    return isinstance(value, list) and all(map(is_integer, value))


_OPERATOR = (("matrix", _raw), ("sites", _Key(_integers, "expected a list of integer sites")))
_PROBE = (*_OPERATOR,
          ("label", _Key(lambda v: isinstance(v, str), "expected a string, got {!r}"), None))


def _parse_local_operator(spec, errors: _Problems, path: str, rows=_OPERATOR):
    """The local operator a spec of ``rows`` describes: its matrix on its sites."""
    fields = _fields(spec, errors, path, rows)
    if fields is None or fields["sites"] is None or fields["matrix"] is None:
        return None
    sites, mat_spec = fields["sites"], fields["matrix"]
    if _is_per_site_list(mat_spec, len(sites)):
        # one matrix per site, tensored
        if len(mat_spec) != len(sites):
            errors.add(path, "per-site matrix list must match 'sites' length")
            return None
        factors = {}
        for s, m in zip(sites, mat_spec):
            if s in factors:
                errors.add(f"{path}.sites", f"site {s} carries two factors of a per-site list")
                return None
            mat = _parse_matrix(m, errors, f"{path}.matrix")
            if mat is None:
                return None
            factors[s] = mat
        return errors.attempt(path, from_site_factors, factors)
    mat = _parse_matrix(mat_spec, errors, f"{path}.matrix")
    if mat is None:
        return None
    return errors.attempt(path, local_operator, mat, tuple(sites))


def _parse_sequence(spec, errors: _Problems, path: str, site_dim=...):
    """The sequence a spec describes, of ``site_dim`` (None: classical; ``...``: any)."""
    known = len(errors)
    entry, values = _tagged(spec, errors, path, _SEQUENCE_KINDS, _KIND)
    if len(errors) > known:
        return None
    seq = errors.attempt(path, entry[0], *values.values())
    if seq is None or site_dim in (..., seq.site_dim):
        return seq
    errors.add(path, f"expected site dimension {site_dim}, got {seq.site_dim} (None: classical)")
    return None


def _parse_offset(offset, errors: _Problems, path: str):
    """Site rule of a translated sequence: site max(1, N - offset), or N itself (None)."""
    if not is_integer(offset) or offset < 0:
        errors.add(path, "expected a nonnegative integer")
        return None
    return None if offset == 0 else (lambda n: max(1, n - offset))


def _parse_block_lengths(value, errors: _Problems, path: str):
    """Block-length rule of a block product: an explicit list (by default B_n = n + 1)."""
    if not (_integers(value) and value and value[0] > 0
            and all(a < b for a, b in zip(value, value[1:]))):
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


_NAMED_TRIG = {"cos_q": cl.cos_q, "sin_q": cl.sin_q, "cos_p": cl.cos_p, "sin_p": cl.sin_p}
_SITE = _Key(lambda v: is_integer(v) and v >= 1, "expected a positive integer site")
_NAMED = (("named", _one_of(tuple(_NAMED_TRIG))), ("site", _SITE, 1))
_FREQS = _Key(lambda v: isinstance(v, list) and all(_integers(f) and len(f) == 3 for f in v),
              "expected [[site, m, n], ...] of integers")
_TERM = (("amplitude", _parse_scalar), ("freqs", _FREQS, []))


def _parse_terms(value, errors: _Problems, path: str):
    """The sum of a list of terms; None, with every failing term's problems, if any fails."""
    if not isinstance(value, list):
        errors.add(path, "expected a list of terms")
        return None
    terms = []
    for i, spec in enumerate(value):
        fields = _fields(spec, errors, f"{path}[{i}]", _TERM)
        read = fields is not None and None not in fields.values()
        term = errors.attempt(f"{path}[{i}]", cl.trig_term, *fields.values()) if read else None
        terms.append(term)
    if any(term is None for term in terms):
        return None
    return sum(terms, cl.TrigObservable({}))


def _trig_rows(spec: dict):
    """The rows of a classical observable: the shorthand's if the object names
    one, or gives a site and no terms; the terms' otherwise."""
    named = "named" in spec or ("site" in spec and "terms" not in spec)
    return (_NAMED if named else (("terms", _parse_terms),)), spec


def _parse_trig(spec, errors: _Problems, path: str):
    fields = _fields(spec, errors, path, _trig_rows)
    if fields is None or None in fields.values():
        return None
    return _NAMED_TRIG[fields["named"]](fields["site"]) if "named" in fields else fields["terms"]


# each kind's constructor, then the rows whose values it takes in order
_SEQUENCE_KINDS = {
    "local": (LocalEmbedSeq, (("op", _parse_local_operator),)),
    "translated": (TranslatedToInfinity, (("op", _parse_matrix), ("offset", _parse_offset, None))),
    "gamma": (GammaSeq.from_seed, (("seed", _parse_local_operator),)),
    "uniform-product": (UniformProduct, (("op", _parse_matrix),)),
    "parity-product": (ParityProduct, (("odd", _parse_matrix), ("even", _parse_matrix))),
    "block-product": (
        BlockProduct,
        (("even", _parse_matrix), ("odd", _parse_matrix),
         ("lengths", _parse_block_lengths, default_block_lengths)),
    ),
    "half-chain": (HalfChain, (("op", _parse_matrix),)),
    "classical-local": (LocalEmbedSeq, (("f", _parse_trig),)),
    "cyclic-average": (GammaSeq, (("f", _parse_trig),)),
    "tail-shifted": (cl.tail_sequence, (("f", _parse_trig),)),
    "sum": (SeqSum, (("left", _parse_sequence), ("right", _parse_sequence))),
    "product": (SeqProduct, (("left", _parse_sequence), ("right", _parse_sequence))),
    "adjoint": (SeqAdjoint, (("inner", _parse_sequence),)),
    "scale": (SeqScale, (("factor", _parse_factor), ("inner", _parse_sequence))),
}
_KIND = (("kind", _one_of(tuple(_SEQUENCE_KINDS))),)


def _parse_gamma_sequence(spec, errors: _Problems, path: str):
    seq = _parse_sequence(spec, errors, path, 2)
    if seq is not None and not isinstance(seq, GammaSeq):
        errors.add(path, "gamma-bound needs a sequence of kind 'gamma'")
    return seq


def _parse_variance_seed(spec, errors: _Problems, path: str):
    op = _parse_local_operator(spec, errors, path)
    if op is not None:
        errors.attempt(path, _check_averaging_seed, op)
    return op


def _parse_probe(spec, errors: _Problems, path: str):
    op = _parse_local_operator(spec, errors, path, _PROBE)
    if op is None:
        return None
    if "label" in spec:
        return spec["label"], op
    sites = ",".join(map(str, op.support)) or "scalar"
    names = [spec["matrix"]] if isinstance(spec["matrix"], str) else spec["matrix"]
    name = "*".join(names) if all(isinstance(m, str) for m in names) else "op"
    return f"{name}@{sites}", op


def _parse_probes(spec, errors: _Problems, path: str):
    if not isinstance(spec, list):
        errors.add(path, "expected a list of local-operator specs")
        return None
    return [_parse_probe(p, errors, f"{path}[{i}]") for i, p in enumerate(spec)]


def _parse_state(spec, errors: _Problems, path: str):
    fields = _fields(spec, errors, path, (("rho", _parse_matrix),))
    rho = fields and fields["rho"]
    return None if rho is None else errors.attempt(f"{path}.rho", product_state, rho)


# ---------------------------------------------------------------------------
# experiment handlers: each runs one kind on the config and the parsed fields
# of its row, passed as keyword arguments, and returns its series as (label,
# DecayReport) pairs, appending to the report's warnings.  Estimators are
# called through their module-level names so that wrappers installed on them
# see the calls.


def _run_norm(config, warnings, sequence):
    return [("norm", classify_trace(config.estimate(seq_norm_trace, sequence)))]


def _run_decay(config, warnings, sequence):
    return [("vanishing", config.estimate(vanishing_test, sequence))]


def _run_equiv(config, warnings, sequence, sequence2):
    return [("difference", config.estimate(equivalence_test, sequence, sequence2))]


def _run_commutant(config, warnings, sequence, probes):
    results = config.estimate(commutant_membership, sequence, probes)
    warnings.extend(f"probe {r.label} skipped: {r.reason}" for r in results if r.skipped)
    return [(r.label, r.report) for r in results if not r.skipped]


def _run_gamma_bound(config, warnings, sequence, probe):
    return [("commutator", config.estimate(gamma_bound_check, sequence, probe[1]))]


def _run_expect(config, warnings, sequence, state):
    trace = config.schedule.trace(lambda n: TracePoint(n, expectation(state, sequence.eval(n), n)))
    series = []
    for part, of in (("re", lambda v: v.real), ("im", lambda v: v.imag)):
        points = tuple(replace(p, value=float(of(p.value))) for p in trace)
        # classified on the moduli, reported with their signs
        rep = classify_trace([replace(p, value=abs(p.value)) for p in points])
        series.append((f"expectation.{part}", replace(rep, points=points)))
    return series


def _run_variance(config, warnings, state, observable):
    trace = config.schedule.trace(lambda n: TracePoint(n, average_variance(state, observable, n)))
    return [("variance", classify_trace(trace))]


def _run_classical_decay(config, warnings, sequence, probe):
    return [("bracket.l1", cl.bracket_decay_test(sequence, probe, config.schedule))]


def _run_mutual(config, warnings, sequence, sequence2):
    return [("commutator", config.estimate(mutual_commutator_trace, sequence, sequence2))]


class Experiment(NamedTuple):
    """One experiment kind: how it runs, the fields it reads, its fewest schedule points."""

    # (config, warnings, **parsed fields) -> list of (label, DecayReport) series
    handler: Callable
    # config fields as rows of _fields, after the keys every kind reads
    fields: tuple[tuple, ...]
    min_points: int = MIN_POINTS


_SEQUENCE = ("sequence", partial(_parse_sequence, site_dim=2))
_SEQUENCE2 = ("sequence2", partial(_parse_sequence, site_dim=2))
_TRIG_SEQUENCE = ("sequence", partial(_parse_sequence, site_dim=None))
_STATE = ("state", _parse_state)

EXPERIMENTS = {
    "norm": Experiment(_run_norm, (_SEQUENCE,), 1),
    "decay": Experiment(_run_decay, (_SEQUENCE,)),
    "equiv": Experiment(_run_equiv, (_SEQUENCE, _SEQUENCE2)),
    "commutant": Experiment(_run_commutant, (_SEQUENCE, ("probes", _parse_probes, None))),
    "gamma-bound": Experiment(
        _run_gamma_bound, (("sequence", _parse_gamma_sequence), ("probe", _parse_probe))
    ),
    "expect": Experiment(_run_expect, (_SEQUENCE, _STATE), 1),
    "variance": Experiment(_run_variance, (_STATE, ("observable", _parse_variance_seed)), 1),
    "classical-decay": Experiment(_run_classical_decay, (_TRIG_SEQUENCE, ("probe", _parse_trig))),
    "mutual": Experiment(_run_mutual, (_SEQUENCE, _SEQUENCE2), 1),
}


# ---------------------------------------------------------------------------
# the keys every kind reads: parse_config validates from their rows, run
# checks from the assert rows, and a flag overrides the key it names


def _failing_at(label: str, what: str, ns: list[int]):
    return ns and f"series {label}: {what} at N in {ns}"


def _misclassified(want, label, rep):
    if rep.classification != want:
        return f"series {label}: classification {rep.classification!r}, expected {want!r}"


def _unconverged(want, label, rep):
    return want and _failing_at(label, "unconverged", [p.n for p in rep.points if not p.converged])


def _over_cap(cap, label, rep):
    over = [p.n for p in rep.points if p.value > cap]
    return _failing_at(label, f"value above {float(cap)}", over)


# the keys of the top-level keys that hold an object, as {key: (parser, default)}
_ASSERT = {
    "classification": (_one_of(CLASSIFICATIONS, check=_misclassified, targeted=True), None),
    "series": (_Key(lambda v: isinstance(v, str), "expected a series label, got {!r}"), None),
    "all_converged": (
        _Key(lambda v: isinstance(v, bool), "expected true or false, got {!r}", check=_unconverged),
        False,
    ),
    "max_value": (_Key(_is_finite, "expected a finite number, got {!r}", check=_over_cap), None),
}
_OUTPUT = {
    "format": (_one_of(FORMATS), "json"),
    "path": (_Key(lambda v: isinstance(v, str), "expected a file path, got {!r}"), None),
}
_SECTIONS = {"assert": _ASSERT, "output": _OUTPUT}

# the rows of the keys every kind may leave out
_CONFIG_FIELDS = (
    ("method", _one_of(NORM_METHODS), "auto"),
    ("seed", _Key(lambda v: is_integer(v) and v >= 0, "expected a nonnegative integer"), 0),
    ("dense_cap", _Key(lambda v: is_integer(v) and v >= 2, "expected an integer >= 2"),
     DENSE_DIM_CAP),
    *(
        (name, partial(_fields, rows=[(key, *row) for key, row in keys.items()]),
         {key: default for key, (_, default) in keys.items()})
        for name, keys in _SECTIONS.items()
    ),
)


_COMMON = (
    ("experiment", _one_of(tuple(EXPERIMENTS))),
    ("schedule", _Key(_integers, "expected a list of integers")),
    *_CONFIG_FIELDS,
)
# each `run` flag: the config key it sets, as problems name it, and its argparse options
_FLAGS = {
    "--format": ("output.format", {"choices": FORMATS}),
    "--seed": ("seed", {"type": int}),
    "--dense-cap": ("dense_cap", {"type": int}),
    "--out": ("output.path", {"metavar": "PATH"}),
}


@dataclass
class ExperimentConfig:
    kind: str
    schedule: VolumeSchedule
    echo: dict
    method: str
    seed: int
    dense_cap: int
    assert_spec: dict
    out_format: str
    out_path: str | None
    # each field of the kind's row, by name, as its parser returned it
    fields: dict

    def estimate(self, estimator, *args):
        """``estimator`` over this config's schedule, with its norm options."""
        return estimator(
            *args, self.schedule, method=self.method, dense_cap=self.dense_cap, seed=self.seed
        )


def _present(pairs) -> dict:
    """An object's members, less the null ones, which count as absent."""
    return {name: value for name, value in dict(pairs).items() if value is not None}


def _decode(text):
    """The JSON value of a config's text (or of a value's), less every null member
    of every object; raises :class:`ConfigError` if there is none."""
    try:
        text = text if isinstance(text, str) else json.dumps(text)
        return json.loads(text, object_pairs_hook=_present)
    # bad JSON or a value it cannot hold, a too long integer, or nesting too deep
    except (TypeError, ValueError, RecursionError) as exc:
        raise ConfigError([f"config: not valid JSON ({exc})"]) from exc


def parse_config(text_or_dict) -> ExperimentConfig:
    """Validate a config, text or the value of its text; raises
    :class:`ConfigError` listing every problem."""
    raw = _decode(text_or_dict)
    if not isinstance(raw, dict):
        raise ConfigError(["config: top level must be an object"])
    errors = _Problems()
    experiment, values = _tagged(raw, errors, "", EXPERIMENTS, _COMMON)
    schedule = values.pop("schedule")
    if schedule is not None:
        schedule = errors.attempt("schedule", VolumeSchedule, tuple(schedule))
    if schedule and experiment and len(schedule.points) < experiment.min_points:
        kind = raw["experiment"]
        errors.add("schedule", f"{kind} experiments need at least {experiment.min_points} points")
    if errors:
        raise ConfigError(errors)
    method, seed, dense_cap, assert_spec, output = (values.pop(r[0]) for r in _CONFIG_FIELDS)
    return ExperimentConfig(raw["experiment"], schedule, raw, method, seed, dense_cap,
                            assert_spec, output["format"], output["path"], values)


def run(config: ExperimentConfig) -> tuple[Report, list[str]]:
    """Execute one experiment; returns the report and assertion failures."""
    warnings: list[str] = []
    series = EXPERIMENTS[config.kind].handler(config, warnings, **config.fields)
    # a point above its series' bound fails whatever the config asserts
    failures = [
        _failing_at(label, "bound violated", list(rep.bound_violations))
        for label, rep in series if rep.bound_violations
    ]

    spec = config.assert_spec
    target = spec["series"]
    if target is not None and all(label != target for label, _ in series):
        failures.append(f"assert.series: no series labeled {target!r}")
    checks = [
        (key, spec[name]) for name, (key, default) in _ASSERT.items()
        if key.check and spec[name] != default
    ]
    # a check over no series at all would pass without looking at anything
    if checks and not series:
        failures.append("assert: no series to check")
    for key, value in checks:
        for label, rep in series:
            failure = (not key.targeted or target in (None, label)) and key.check(value, label, rep)
            if failure:
                failures.append(failure)

    meta = {
        "experiment": config.kind,
        "seed": config.seed,
        "method": config.method,
        "dense_cap": config.dense_cap,
        "echo": config.echo,
        "warnings": warnings,
        "assertions": {"passed": not failures, "failures": failures},
    }
    return Report(meta, list(config.schedule.points), series), failures


def _override(raw, path: str, value):
    """Set the key at dotted ``path`` of a decoded config; an absent section
    becomes an object, and a non-object is left for :func:`parse_config` to refuse."""
    *section, name = path.split(".")
    with contextlib.suppress(AttributeError, TypeError):  # no object to set the key in
        (raw.setdefault(section[0], {}) if section else raw)[name] = value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spintail", description="run volume-schedule experiments from a config file"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    for flag, (path, options) in _FLAGS.items():
        p_run.add_argument(flag, dest=path, **options)
    p_val = sub.add_parser("validate", help="validate a config, reporting every problem")
    p_val.add_argument("config")
    sub.add_parser("schema", help="print the report JSON schema")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help, and 2 on a usage error once it has
        # printed the usage; 2 is kept for failed assertions
        return 1 if exc.code else 0

    if args.command == "schema":
        print(json.dumps(REPORT_SCHEMA, sort_keys=True, indent=2))
        return 0

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        raw = _decode(text)
        for path, _ in _FLAGS.values():
            if getattr(args, path, None) is not None:
                _override(raw, path, getattr(args, path))
        config = parse_config(raw)
    except ConfigError as exc:
        for p in exc.problems:
            print(f"invalid: {p}", file=sys.stderr)
        return 1
    if args.command == "validate":
        print("ok")
        return 0

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
                line = f"[timing] {label} N={p.n}: {p.seconds:.4f}s {p.route}"
                print(line.rstrip(), file=sys.stderr)

    if failures:
        for f in failures:
            print(f"assertion failed: {f}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
