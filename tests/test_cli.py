import copy
import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import spintail
from spintail import cli, dense_matrix
from spintail.cli import main, parse_config, run
from spintail.errors import ConfigError
from spintail.report import Report, emit

DATA = Path(__file__).parent / "data"

GAMMA_BOUND = {
    "experiment": "gamma-bound",
    "schedule": [4, 6, 8, 10],
    "method": "auto",
    "seed": 42,
    "sequence": {"kind": "gamma", "seed": {"matrix": "pauli3", "sites": [1]}},
    "probe": {"matrix": "pauli1", "sites": [1]},
}

# a two-site seed given as per-site [re, im] literals, probed by a name next
# to a literal
PER_SITE_GAMMA_BOUND = {
    "experiment": "gamma-bound",
    "schedule": [4, 6, 8, 10],
    "seed": 42,
    "sequence": {
        "kind": "gamma",
        "seed": {
            "matrix": [
                [[[0.5, 0], [0, 0]], [[0, 0], [-1, 0]]],
                [[[0, 0], [0, -1]], [[0, 1], [0, 0]]],
            ],
            "sites": [1, 2],
        },
    },
    "probe": {
        "matrix": ["pauli1", [[[0.5, 0.5], [0, 0.25]], [[0.25, 0], [-0.5, 0.5]]]],
        "sites": [1, 2],
    },
}

EXPECT = {
    "experiment": "expect",
    "schedule": [1, 2, 3, 4, 5, 6, 7, 8],
    "seed": 42,
    "sequence": {"kind": "uniform-product", "op": "pauli1"},
    "state": {"rho": [[0.5, -0.5], [-0.5, 0.5]]},
}

MUTUAL = {
    "experiment": "mutual",
    "schedule": [3, 6, 9],
    "seed": 42,
    "sequence": {"kind": "translated", "op": "pauli1"},
    "sequence2": {"kind": "translated", "op": "pauli3"},
}

ALL_KINDS = {
    "norm": {
        "experiment": "norm",
        "schedule": [2, 4, 6, 8],
        "seed": 42,
        "sequence": {"kind": "gamma", "seed": {"matrix": "pauli3", "sites": [1]}},
    },
    "decay": {
        "experiment": "decay",
        "schedule": [2, 4, 8, 16],
        "seed": 42,
        "sequence": {
            "kind": "scale",
            "factor": "1/N",
            "inner": {"kind": "local", "op": {"matrix": "pauli1", "sites": [1]}},
        },
    },
    "equiv": {
        "experiment": "equiv",
        "schedule": [2, 4, 6, 8],
        "seed": 42,
        "sequence": {"kind": "translated", "op": "pauli1"},
        "sequence2": {"kind": "translated", "op": "pauli1", "offset": 1},
    },
    "commutant": {
        "experiment": "commutant",
        "schedule": [4, 6, 8, 10],
        "seed": 42,
        "sequence": {"kind": "gamma", "seed": {"matrix": "pauli3", "sites": [1]}},
    },
    "gamma-bound": GAMMA_BOUND,
    "expect": EXPECT,
    "variance": {
        "experiment": "variance",
        "schedule": [4, 6, 8, 10, 12],
        "seed": 42,
        "observable": {"matrix": "pauli3", "sites": [1]},
        "state": {"rho": [[0.8, 0], [0, 0.2]]},
    },
    "classical-decay": {
        "experiment": "classical-decay",
        "schedule": [2, 4, 8, 16, 32, 64],
        "seed": 42,
        "sequence": {"kind": "cyclic-average", "f": {"named": "cos_q", "site": 1}},
        "probe": {"named": "cos_p", "site": 1},
    },
    "mutual": MUTUAL,
}

CLASSICAL = ALL_KINDS["classical-decay"]

# report bytes frozen under tests/data, one config per kind; the commutant
# config lists a probe beyond the smallest volume so its skip warning is frozen
GOLDEN = {
    f"{kind.replace('-', '_')}_seed42.json": (cfg, "json")
    for kind, cfg in ALL_KINDS.items()
    if kind not in ("commutant", "gamma-bound")
}
GOLDEN["commutant_seed42.json"] = (
    dict(
        ALL_KINDS["commutant"],
        probes=[
            {"matrix": "pauli1", "sites": [1]},
            {"matrix": ["pauli1", "pauli3"], "sites": [1, 2]},
            {"matrix": "pauli3", "sites": [6]},
        ],
    ),
    "json",
)
GOLDEN["gamma_bound_seed42.csv"] = (GAMMA_BOUND, "csv")
# the second series that carries a bound, a constant reference on every point
GOLDEN["mutual_seed42.csv"] = (MUTUAL, "csv")
# complex, non-diagonal one-site observable in a mixed state with coherences:
# every product in the variance sum is a full complex 2x2 block
GOLDEN["variance_complex_seed42.json"] = (
    {
        "experiment": "variance",
        "schedule": [16, 32, 64],
        "seed": 42,
        "observable": {"matrix": [[[0.3, 0], [0.2, -0.4]], [[0.2, 0.4], [-0.5, 0]]], "sites": [1]},
        "state": {"rho": [[[0.7, 0], [0.1, -0.2]], [[0.1, 0.2], [0.3, 0]]]},
    },
    "json",
)
# two translated sequences with complex [re, im] factors: the commutator
# reference is taken from the stored site operators
GOLDEN["mutual_complex_seed42.json"] = (
    dict(
        MUTUAL,
        sequence={"kind": "translated", "op": [[[0.5, 0], [0, 0.5]], [[0, -0.5], [-0.25, 0]]]},
        sequence2={"kind": "translated", "op": [[[0, 0.3], [0.6, 0]], [[0.2, -0.1], [0, -0.3]]]},
    ),
    "json",
)

# the four sitewise products at up to 4096 sites: complex one-site factors of
# norm just below 1 in a tilted mixed state, so every value is a long product
# of complex site values.  Frozen from the implementation that placed one
# block per site, so they pin the counted-factor records to its bytes.
_TILTED_RHO = [[[0.965, 0], [0.15, -0.1]], [[0.15, 0.1], [0.035, 0]]]
_FACTOR_U = [[[0.9319, 0.0093], [0.3026, -0.1974]], [[0.2986, 0.2034], [-0.9319, -0.0093]]]
_FACTOR_V = [[[0.998, 0.02], [0, 0]], [[0, 0], [0.997, -0.03]]]
for _kind, _seq in {
    "uniform_product": {"kind": "uniform-product", "op": _FACTOR_U},
    "parity_product": {"kind": "parity-product", "odd": _FACTOR_U, "even": _FACTOR_V},
    "block_product": {"kind": "block-product", "even": _FACTOR_U, "odd": _FACTOR_V},
    "half_chain": {"kind": "half-chain", "op": _FACTOR_V},
}.items():
    GOLDEN[f"expect_{_kind}_seed42.json"] = (
        dict(EXPECT, schedule=[1, 2, 3, 4, 7, 8, 100, 1023, 1024, 4095, 4096],
             sequence=_seq, state={"rho": _TILTED_RHO}),
        "json",
    )


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestParseConfig:
    def test_minimal_gamma_bound_valid(self):
        cfg = parse_config(json.dumps(GAMMA_BOUND))
        assert cfg.kind == "gamma-bound"
        assert cfg.schedule.points == (4, 6, 8, 10)
        assert cfg.fields["probe"][0] == "pauli1@1"

    def test_non_increasing_schedule_named(self):
        bad = dict(GAMMA_BOUND, schedule=[4, 4])
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(bad))
        assert any(p.startswith("schedule") for p in exc.value.problems)

    def test_bad_density_matrix_named(self):
        bad = dict(EXPECT, state={"rho": [[0.45, -0.5], [-0.5, 0.45]]})
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(bad))
        assert any("state.rho" in p and "trace" in p for p in exc.value.problems)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps({"experiment": "frobnicate", "schedule": [2, 3]}))
        assert any(p.startswith("experiment") for p in exc.value.problems)

    def test_malformed_matrix_literal(self):
        bad = dict(GAMMA_BOUND, probe={"matrix": "pauli9", "sites": [1]})
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(bad))
        assert any("probe.matrix" in p for p in exc.value.problems)

    def test_all_errors_collected(self):
        bad = {
            "experiment": "frobnicate",
            "schedule": [4, 4],
            "method": "sideways",
        }
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(bad))
        fields = {p.split(":")[0] for p in exc.value.problems}
        assert {"experiment", "schedule", "method"} <= fields

    def test_not_json(self):
        with pytest.raises(ConfigError):
            parse_config("{nope")

    def test_value_json_cannot_hold_is_a_config_error(self):
        # a config given as a value is read as the JSON text it stands for
        with pytest.raises(ConfigError) as exc:
            parse_config(dict(ALL_KINDS["norm"], schedule=np.array([2, 4])))
        assert [p.split(" (")[0] for p in exc.value.problems] == ["config: not valid JSON"]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_integer_too_long_for_json(self, command, tmp_path, capsys):
        # json refuses integer literals of more than 4300 digits with a ValueError
        path = tmp_path / "config.json"
        path.write_text('{"experiment": "norm", "seed": ' + "9" * 5000 + "}")
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err and all(line.startswith("invalid: ") for line in err)

    def test_negative_seed_flag_refused(self, tmp_path, capsys):
        # the iterative route seeds numpy's generator, which refuses negative seeds
        cfg = dict(ALL_KINDS["norm"], method="iterative")
        assert main(["run", write_config(tmp_path, cfg), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "invalid: seed: expected a nonnegative integer"
        ]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_config_not_utf8(self, command, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot read config: ")

    @pytest.mark.parametrize(
        "text",
        [
            '{"experiment": "norm", "schedule": [2, ',
            '{"experiment": "norm", "sequence": '
            + '{"kind": "adjoint", "inner": ' * 3000
            + "{}"
            + "}" * 3001,
        ],
        ids=["truncated", "nested_3000"],
    )
    def test_run_and_validate_decode_alike(self, text, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(text)
        err = []
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 1
            err.append(capsys.readouterr().err.splitlines())
        assert err[0] == err[1]
        assert len(err[0]) == 1 and err[0][0].startswith("invalid: config: not valid JSON (")

    @pytest.mark.parametrize(
        "observable, problem",
        [
            ({"matrix": ["pauli1", "pauli3"], "sites": [1, 2]},
             "variance seeds act on at most one site"),
            ({"matrix": [[0, 1], [0, 0]], "sites": [1]}, "variance seeds must be self-adjoint"),
        ],
        ids=["two_sites", "not_hermitian"],
    )
    def test_variance_seed_checked_at_parse(self, observable, problem, tmp_path, capsys):
        path = write_config(tmp_path, dict(ALL_KINDS["variance"], observable=observable))
        for command in ("validate", "run"):
            assert main([command, path]) == 1
            assert capsys.readouterr().err.splitlines() == [f"invalid: observable: {problem}"]

    # 400 levels pass json but not the sequence grammar's recursion; 3000
    # levels stop json itself
    @pytest.mark.parametrize("depth", [400, 3000])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_deep_nesting_refused(self, command, depth, tmp_path, capsys):
        text = json.dumps({"kind": "local", "op": {"matrix": "pauli3", "sites": [1]}})
        for _ in range(depth):
            text = '{"kind": "adjoint", "inner": ' + text + "}"
        path = tmp_path / "config.json"
        path.write_text('{"experiment": "norm", "schedule": [2, 3], "sequence": ' + text + "}")
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err and all(line.startswith("invalid: ") for line in err)

    @pytest.mark.parametrize(
        "field, patch",
        [
            ("output.path", {"output": {"path": 7}}),
            ("assert.max_value", {"assert": {"max_value": "big"}}),
            ("assert.series", {"assert": {"classification": "vanishing", "series": 5}}),
            ("assert.all_converged", {"assert": {"all_converged": "yes"}}),
        ],
    )
    def test_field_types_checked(self, field, patch):
        with pytest.raises(ConfigError) as exc:
            parse_config(dict(GAMMA_BOUND, **patch))
        assert [p.split(":")[0] for p in exc.value.problems] == [field]

    @pytest.mark.parametrize(
        "field, cfg",
        [
            ("sequence.op", dict(ALL_KINDS["norm"], sequence={
                "kind": "uniform-product", "op": [[1, 0], [0]]})),
            ("sequence.op[0]", dict(ALL_KINDS["norm"], sequence={
                "kind": "uniform-product", "op": [[10**400, 0], [0, 1]]})),
            ("probe.terms", dict(CLASSICAL, probe={"terms": 5})),
            ("probe.named", dict(CLASSICAL, probe={"named": ["cos_q"]})),
            ("probe.terms[0].freqs", dict(CLASSICAL, probe={
                "terms": [{"amplitude": 1, "freqs": [["a", 1, 0]]}]})),
            ("sequence.factor", dict(ALL_KINDS["norm"], sequence={
                "kind": "scale", "factor": float("nan"), "inner": ALL_KINDS["norm"]["sequence"]})),
            ("sequence.factor", dict(ALL_KINDS["norm"], sequence={
                "kind": "scale", "factor": [1, -float("inf")],
                "inner": ALL_KINDS["norm"]["sequence"]})),
            ("probe.terms[0].amplitude", dict(CLASSICAL, probe={
                "terms": [{"amplitude": float("inf"), "freqs": [[1, 0, 1]]}]})),
            ("assert.max_value", dict(GAMMA_BOUND, **{"assert": {"max_value": float("nan")}})),
            ("assert.max_value", dict(GAMMA_BOUND, **{"assert": {"max_value": -float("inf")}})),
            ("assert.max_value", dict(GAMMA_BOUND, **{"assert": {"max_value": 10**400}})),
            ("seed", dict(GAMMA_BOUND, seed=-1)),
        ],
        ids=["ragged_matrix", "huge_entry", "terms_not_list", "named_not_string",
             "freq_not_int", "nan_factor", "infinite_imag_factor", "infinite_amplitude",
             "nan_max_value", "infinite_max_value", "huge_max_value", "negative_seed"],
    )
    def test_malformed_literal_named(self, field, cfg, tmp_path, capsys):
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert [p.split(":")[0] for p in exc.value.problems] == [field]
        assert main(["validate", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err and all(line.startswith("invalid: ") for line in err)

    @pytest.mark.parametrize(
        "field, cfg",
        [
            ("seed", dict(GAMMA_BOUND, seed=True)),
            ("schedule", dict(GAMMA_BOUND, schedule=[True, 2, 3, 4])),
            ("probe.sites", dict(GAMMA_BOUND, probe={"matrix": "pauli1", "sites": [True]})),
            ("sequence.offset", dict(MUTUAL, sequence={
                "kind": "translated", "op": "pauli1", "offset": True})),
            ("sequence.lengths", dict(ALL_KINDS["norm"], sequence={
                "kind": "block-product", "even": "pauli1", "odd": "pauli3",
                "lengths": [True, 2, 3]})),
            ("probe.site", dict(CLASSICAL, probe={"named": "cos_p", "site": True})),
            ("probe.terms[0].freqs", dict(CLASSICAL, probe={
                "terms": [{"amplitude": 1, "freqs": [[1.7, 1, 0]]}]})),
            ("probe.terms[0].amplitude", dict(CLASSICAL, probe={
                "terms": [{"amplitude": True, "freqs": [[1, 0, 1]]}]})),
        ],
        ids=["seed", "schedule", "sites", "offset", "lengths", "classical_site",
             "freq_site", "scalar"],
    )
    def test_booleans_and_fractions_not_integers(self, field, cfg):
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert [p.split(":")[0] for p in exc.value.problems] == [field]

    def test_every_bad_term_is_reported(self, tmp_path, capsys):
        # a bad term does not hide the problems of the terms after it
        terms = [{"freqs": [[1, 0, 1]]},
                 {"amplitude": 1, "freqs": [[1, 0, 1]]},
                 {"amplitude": 1, "freqs": [[0, 1, 0]]}]
        cfg = dict(CLASSICAL, probe={"terms": terms})
        paths = ["probe.terms[0].amplitude", "probe.terms[2]"]
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert [p.split(":")[0] for p in exc.value.problems] == paths
        assert main(["validate", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[1].strip() for line in err] == paths


# every value a JSON document can hold
JSON_VALUES = hst.recursive(
    hst.none()
    | hst.booleans()
    | hst.integers()
    | hst.floats(allow_nan=False, allow_infinity=False)
    | hst.text(max_size=8),
    lambda inner: hst.lists(inner, max_size=4)
    | hst.dictionaries(hst.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _field_paths():
    """(kind, key path) of every field of every ALL_KINDS config, and of the
    optional top-level fields, down into ``sequence``, ``probe``, ``state``
    and a classical sequence's ``f``."""
    for kind, cfg in sorted(ALL_KINDS.items()):
        for key in sorted(set(cfg) | {"method", "dense_cap", "assert", "output"}):
            yield kind, (key,)
        for outer in ("sequence", "probe", "state"):
            for key in cfg.get(outer, {}):
                yield kind, (outer, key)
        for key in cfg.get("sequence", {}).get("f", {}):
            yield kind, ("sequence", "f", key)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hst.sampled_from(list(_field_paths())), JSON_VALUES)
def test_parse_config_returns_or_raises_config_error(where, value):
    kind, path = where
    cfg = copy.deepcopy(ALL_KINDS[kind])
    owner = cfg
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    try:
        parse_config(cfg)
    except ConfigError:
        pass


AVERAGE_COS_Q = {"kind": "cyclic-average", "f": {"named": "cos_q", "site": 1}}
GAMMA_SIGMA3 = GAMMA_BOUND["sequence"]


class TestOneSequenceGrammar:
    """Quantum and classical sequences share one grammar; each sequence field
    states the site dimension it takes, so the wrong algebra is refused there."""

    @staticmethod
    def _values(sequence):
        report, _ = run(parse_config(dict(CLASSICAL, sequence=sequence)))
        ((_, rep),) = report.series
        return [p.value for p in rep.points]

    def test_sum_and_scale_of_classical_sequences_run(self):
        # the bracket of a sum of two equal averages with cos p1 is exactly twice
        # that of one, and of half an average exactly half
        alone = self._values(AVERAGE_COS_Q)
        assert alone == [1 / n for n in CLASSICAL["schedule"]]
        twice = self._values({"kind": "sum", "left": AVERAGE_COS_Q, "right": AVERAGE_COS_Q})
        assert twice == [2 * v for v in alone]
        assert self._values({"kind": "scale", "factor": 0.5, "inner": AVERAGE_COS_Q}) == [
            0.5 * v for v in alone]

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(ALL_KINDS["norm"], sequence=AVERAGE_COS_Q),
            dict(CLASSICAL, sequence=GAMMA_SIGMA3),
            dict(CLASSICAL, sequence={"kind": "sum", "left": GAMMA_SIGMA3, "right": AVERAGE_COS_Q}),
            dict(GAMMA_BOUND, sequence=AVERAGE_COS_Q),
        ],
        ids=["classical-in-norm", "gamma-in-classical-decay", "mixed-sum", "classical-gamma-bound"],
    )
    def test_wrong_algebra_refused_at_sequence(self, cfg):
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert [p.split(":")[0] for p in exc.value.problems] == ["sequence"]
        assert "site dimension" in exc.value.problems[0]

    def test_docstring_grammar_lists_exactly_the_sequence_kinds(self):
        # the literal block after "Sequence grammar" in the module docstring
        block = cli.__doc__.split("Sequence grammar", 1)[1].split("\n\n")[1]
        tags = set()
        for alternatives in re.findall(r'"kind": ((?:"[\w-]+"\|?)+)', block):
            tags.update(re.findall(r'"([\w-]+)"', alternatives))
        assert tags == set(cli._SEQUENCE_KINDS)


# The grammar's one rule, object by object: each case is a valid config, the
# path of one object in it, and that object's required and optional keys.
_UNIFORM = {"kind": "uniform-product", "op": "pauli1"}
_COS_Q = {"named": "cos_q", "site": 1}
_NORM = {"experiment": "norm", "schedule": [2, 3]}
_SEQUENCE_SPECS = {
    "local": ({"kind": "local", "op": {"matrix": "pauli1", "sites": [1]}}, ()),
    "translated": ({"kind": "translated", "op": "pauli1", "offset": 1}, ("offset",)),
    "gamma": (GAMMA_SIGMA3, ()),
    "uniform-product": (_UNIFORM, ()),
    "parity-product": ({"kind": "parity-product", "odd": "pauli1", "even": "pauli3"}, ()),
    "block-product": ({"kind": "block-product", "even": "pauli1", "odd": "pauli3",
                       "lengths": [1, 2, 3]}, ("lengths",)),
    "half-chain": ({"kind": "half-chain", "op": "pauli3"}, ()),
    "classical-local": ({"kind": "classical-local", "f": _COS_Q}, ()),
    "cyclic-average": ({"kind": "cyclic-average", "f": _COS_Q}, ()),
    "tail-shifted": ({"kind": "tail-shifted", "f": _COS_Q}, ()),
    "sum": ({"kind": "sum", "left": _UNIFORM, "right": GAMMA_SIGMA3}, ()),
    "product": ({"kind": "product", "left": _UNIFORM, "right": GAMMA_SIGMA3}, ()),
    "adjoint": ({"kind": "adjoint", "inner": _UNIFORM}, ()),
    "scale": ({"kind": "scale", "factor": [0, 0.5], "inner": _UNIFORM}, ()),
}
_TERMS = {"terms": [{"amplitude": [1, 0.5], "freqs": [[1, 0, 1], [2, 1, 0]]}]}
_OBJECTS = {
    # name: (config, path of the object, its optional keys)
    "top_level": (dict(ALL_KINDS["norm"], method="dense", dense_cap=256, **{
        "assert": {"max_value": 2}, "output": {"format": "json"}}), (),
        ("method", "seed", "dense_cap", "assert", "output")),
    "assert": (dict(ALL_KINDS["norm"], **{"assert": {
        "classification": "bounded_nonvanishing", "series": "norm", "all_converged": True,
        "max_value": 2}}), ("assert",), ("classification", "series", "all_converged", "max_value")),
    "output": (dict(ALL_KINDS["norm"], output={"format": "csv", "path": "r.csv"}), ("output",),
               ("format", "path")),
    **{
        f"sequence_{kind}": (dict(CLASSICAL if spec.get("f") else _NORM, sequence=spec),
                             ("sequence",), optional)
        for kind, (spec, optional) in _SEQUENCE_SPECS.items()
    },
    "local_operator": (ALL_KINDS["variance"], ("observable",), ()),
    "probe": (dict(GAMMA_BOUND, probe={"matrix": "pauli1", "sites": [1], "label": "x"}),
              ("probe",), ("label",)),
    "state": (EXPECT, ("state",), ()),
    "trig_named": (dict(CLASSICAL, probe={"named": "sin_p", "site": 2}), ("probe",), ("site",)),
    "trig_terms": (dict(CLASSICAL, probe=_TERMS), ("probe",), ()),
    "term": (dict(CLASSICAL, probe=_TERMS), ("probe", "terms", 0), ("freqs",)),
}


def _object_at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def _dotted(path):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


def _with(cfg, path, members):
    """A copy of ``cfg`` whose object at ``path`` sets (or, for ``...``, drops) ``members``."""
    cfg = copy.deepcopy(cfg)
    obj = _object_at(cfg, path)
    for key, value in members.items():
        if value is ...:
            obj.pop(key)
        else:
            obj[key] = value
    return cfg


def _report(cfg):
    report, failures = run(parse_config(cfg))
    return emit(report, "json"), failures


def _series(cfg):
    return json.loads(_report(cfg)[0])["series"]


def _problems(cfg):
    with pytest.raises(ConfigError) as exc:
        parse_config(cfg)
    return exc.value.problems


def _one_rule_cases():
    for name, (cfg, path, optional) in _OBJECTS.items():
        yield pytest.param(cfg, path, "unknown", "zz", id=f"{name}-unknown")
        for key in _object_at(cfg, path):
            for how in (("null_optional",) if key in optional else ("null", "missing")):
                yield pytest.param(cfg, path, how, key, id=f"{name}-{how}-{key}")


@pytest.mark.parametrize("cfg, path, how, key", list(_one_rule_cases()))
def test_one_rule_for_every_object(cfg, path, how, key):
    """An unknown key is one problem at its path; a null optional key parses as
    if absent; a required key null or missing is one problem at its path."""
    _report(cfg)  # the case itself is valid
    at = _dotted((*path, key))
    if how == "unknown":
        (problem,) = _problems(_with(cfg, path, {key: 1}))
        assert problem.startswith(f"{at}: unknown key; ")
        # a null member is absent, unknown or not
        assert _report(_with(cfg, path, {key: None})) == _report(cfg)
    elif how == "null_optional":
        assert _report(_with(cfg, path, {key: None})) == _report(_with(cfg, path, {key: ...}))
    else:
        (problem,) = _problems(_with(cfg, path, {key: None if how == "null" else ...}))
        assert problem == f"{at}: required"


def test_nested_nulls_read_as_their_defaults():
    # the offset reads as 0 (site N), the site as 1 and the frequencies as []
    translated = {"kind": "translated", "op": "pauli1"}
    for cfg, default in [
        (dict(_NORM, sequence=dict(translated, offset=None)), dict(_NORM, sequence=translated)),
        (dict(CLASSICAL, probe={"named": "cos_p", "site": None}),
         dict(CLASSICAL, probe={"named": "cos_p", "site": 1})),
        (dict(CLASSICAL, probe={"terms": [{"amplitude": 2, "freqs": None}]}),
         dict(CLASSICAL, probe={"terms": [{"amplitude": 2, "freqs": []}]})),
    ]:
        assert _series(cfg) == _series(default)


def test_echo_drops_null_members_at_every_depth():
    cfg = dict(CLASSICAL, method=None, sequence={
        "kind": "cyclic-average", "f": {"named": "cos_q", "site": None}, "g": None})
    report, _ = run(parse_config(cfg))
    assert report.meta["echo"] == dict(CLASSICAL, sequence={
        "kind": "cyclic-average", "f": {"named": "cos_q"}})


class TestLocalOperatorLiterals:
    def test_complex_two_site_literal_is_one_matrix(self):
        rng = np.random.default_rng(44)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        literal = [[[float(x.real), float(x.imag)] for x in row] for row in m]
        cfg = parse_config(dict(GAMMA_BOUND, probe={"matrix": literal, "sites": [1, 2]}))
        _, op = cfg.fields["probe"]
        assert op.support == (1, 2)
        assert np.array_equal(dense_matrix(op, 2), m)

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_per_site_list_refuses_a_repeated_site(self, command, tmp_path, capsys):
        probe = {"matrix": ["pauli1", "pauli3"], "sites": [1, 1]}
        path = write_config(tmp_path, dict(GAMMA_BOUND, probe=probe))
        assert main([command, path]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "invalid: probe.sites: site 1 carries two factors of a per-site list"
        ]

    def test_per_site_lists_unchanged(self):
        # frozen with the parser that read every list of matrices as per-site
        golden = (DATA / "gamma_bound_per_site_seed42.json").read_bytes()
        report, _ = run(parse_config(json.dumps(PER_SITE_GAMMA_BOUND)))
        assert emit(report, "json") == golden


class TestRun:
    @pytest.mark.parametrize("kind", sorted(ALL_KINDS))
    def test_two_runs_give_equal_reports(self, kind):
        # timings differ between runs, and equality ignores them
        first, _ = run(parse_config(json.dumps(ALL_KINDS[kind])))
        again, _ = run(parse_config(json.dumps(ALL_KINDS[kind])))
        assert first.series == again.series
        assert all(p.seconds >= 0.0 for _, rep in first.series for p in rep.points)

    def test_gamma_bound_passes(self):
        report, failures = run(parse_config(json.dumps(GAMMA_BOUND)))
        assert failures == []
        label, rep = report.series[0]
        assert label == "commutator"
        assert rep.fitted_exponent == pytest.approx(-1.0, abs=0.05)
        assert rep.bound_violations == ()

    def test_gamma_bound_series_ignores_probe_label(self):
        # a probe label names a commutant series; gamma-bound's is always "commutator"
        probe = dict(GAMMA_BOUND["probe"], label="sigma1 at 1")
        report, _ = run(parse_config(json.dumps(dict(GAMMA_BOUND, probe=probe))))
        assert [label for label, _ in report.series] == ["commutator"]

    def test_expect_alternating_values(self):
        report, failures = run(parse_config(json.dumps(EXPECT)))
        assert failures == []
        re_series = next(rep for label, rep in report.series if label == "expectation.re")
        values = [p.value for p in re_series.points]
        assert values == pytest.approx([(-1.0) ** n for n in range(1, 9)], abs=1e-12)

    def test_mutual_constant_two(self):
        report, failures = run(parse_config(json.dumps(MUTUAL)))
        assert failures == []
        _, rep = report.series[0]
        assert [p.value for p in rep.points] == pytest.approx([2.0] * 3, abs=1e-9)

    def test_commutant_warns_and_reports(self):
        report, _ = run(parse_config(json.dumps(ALL_KINDS["commutant"])))
        assert len(report.series) == 7
        for _, rep in report.series:
            assert rep.classification == "vanishing"

    @pytest.mark.parametrize(
        "cfg, expected",
        [
            (
                dict(ALL_KINDS["norm"], **{"assert": {"max_value": 0.5}}),
                ["series norm: value above 0.5 at N in [2, 4, 6, 8]"],
            ),
            # the cap reads the signed expectation values, not their moduli
            (
                dict(EXPECT, **{"assert": {"max_value": 0.5}}),
                ["series expectation.re: value above 0.5 at N in [2, 4, 6, 8]"],
            ),
            (
                dict(EXPECT, **{"assert": {"classification": "vanishing", "series": "nope"}}),
                ["assert.series: no series labeled 'nope'"],
            ),
            (
                dict(
                    EXPECT,
                    **{"assert": {"classification": "vanishing", "series": "expectation.re"}},
                ),
                [
                    "series expectation.re: classification 'bounded_nonvanishing', "
                    "expected 'vanishing'"
                ],
            ),
            (
                dict(
                    ALL_KINDS["commutant"],
                    **{
                        "assert": {
                            "classification": "bounded_nonvanishing",
                            "series": "pauli1@1",
                            "max_value": 0.4,
                        }
                    },
                ),
                [
                    "series pauli1@1: classification 'vanishing', "
                    "expected 'bounded_nonvanishing'",
                    "series pauli1@1: value above 0.4 at N in [4]",
                    "series pauli2@1: value above 0.4 at N in [4]",
                    "series pauli1@2: value above 0.4 at N in [4]",
                    "series pauli2@2: value above 0.4 at N in [4]",
                    "series pauli1*pauli3@1,2: value above 0.4 at N in [4]",
                ],
            ),
            (
                dict(
                    GAMMA_BOUND,
                    **{
                        "assert": {
                            "classification": "unconverged",
                            "all_converged": True,
                            "max_value": 0.3,
                        }
                    },
                ),
                [
                    "series commutator: classification 'vanishing', expected 'unconverged'",
                    "series commutator: value above 0.3 at N in [4, 6]",
                ],
            ),
            # checks over no series at all fail rather than pass vacuously
            (
                dict(
                    ALL_KINDS["commutant"],
                    probes=[],
                    **{"assert": {"classification": "bounded_nonvanishing"}},
                ),
                ["assert: no series to check"],
            ),
            (
                dict(
                    ALL_KINDS["commutant"],
                    probes=[{"matrix": "pauli1", "sites": [9]}],
                    **{"assert": {"classification": "vanishing", "all_converged": True}},
                ),
                ["assert: no series to check"],
            ),
            (
                dict(ALL_KINDS["norm"], **{"assert": {"series": "nope"}}),
                ["assert.series: no series labeled 'nope'"],
            ),
        ],
        ids=["max_value", "max_value_signed", "missing_series", "classification",
             "targeted_and_capped", "every_check", "no_probes", "every_probe_skipped",
             "series_without_classification"],
    )
    def test_assertion_failure_strings(self, cfg, expected, tmp_path, capsys):
        report, failures = run(parse_config(cfg))
        assert failures == expected
        meta = json.loads(emit(report, "json"))["meta"]
        assert meta["assertions"] == {"passed": False, "failures": expected}
        assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("assertion failed: ")] == [
            f"assertion failed: {f}" for f in expected
        ]

    @pytest.mark.parametrize("kind", sorted(ALL_KINDS))
    def test_every_kind_deterministic(self, kind):
        cfg = ALL_KINDS[kind]
        r1, _ = run(parse_config(json.dumps(cfg)))
        r2, _ = run(parse_config(json.dumps(cfg)))
        assert emit(r1, "json") == emit(r2, "json")


class TestEmit:
    def test_empty_series_valid_json(self):
        rep = Report({"experiment": "norm", "seed": 0}, [2, 4], [])
        obj = json.loads(emit(rep, "json"))
        assert obj["series"] == []

    def test_single_point_series_fit_omitted(self):
        cfg = dict(
            ALL_KINDS["norm"],
            schedule=[5],
        )
        report, _ = run(parse_config(json.dumps(cfg)))
        obj = json.loads(emit(report, "json"))
        series = obj["series"][0]
        assert "fit" not in series
        assert series["classification"] == "unconverged"

    def test_csv_shape(self):
        report, _ = run(parse_config(json.dumps(GAMMA_BOUND)))
        lines = emit(report, "csv").decode().strip().splitlines()
        assert lines[0] == "label,n,value,converged,classification,exponent,residual,bound"
        assert len(lines) == 1 + len(GAMMA_BOUND["schedule"])

    @pytest.mark.parametrize(
        "probes",
        [
            None,
            [
                {"matrix": "pauli1", "sites": [1], "label": 'odd, "quoted"\nlabel'},
                {"matrix": ["pauli1", "pauli3"], "sites": [1, 2]},
            ],
            [
                {"matrix": "pauli1", "sites": [1], "label": "carriage\rreturn"},
                {"matrix": "pauli3", "sites": [1], "label": 'crlf\r\nlabel, "quoted"'},
            ],
        ],
        ids=["default_probes", "awkward_label", "carriage_return"],
    )
    def test_csv_round_trip(self, probes):
        # labels holding commas, quotes, newlines or carriage returns stay one
        # field of one row
        cfg = dict(ALL_KINDS["commutant"], schedule=[4, 5, 6, 7])
        if probes is not None:
            cfg["probes"] = probes
        report, _ = run(parse_config(json.dumps(cfg)))
        rows = list(csv.reader(io.StringIO(emit(report, "csv").decode(), newline="")))
        assert all(len(row) == 8 for row in rows)
        series = json.loads(emit(report, "json"))["series"]
        assert [row[0] for row in rows[1:]] == [
            s["label"] for s in series for _ in s["points"]
        ]

    def test_golden_gamma_bound_seed42(self):
        # frozen once from the first working build; byte-for-byte since
        golden = (DATA / "gamma_bound_seed42.json").read_bytes()
        report, _ = run(parse_config(json.dumps(GAMMA_BOUND)))
        assert emit(report, "json") == golden

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_every_kind(self, name):
        cfg, fmt = GOLDEN[name]
        report, _ = run(parse_config(json.dumps(cfg)))
        assert emit(report, fmt) == (DATA / name).read_bytes()


class TestMainExitCodes:
    def test_exit_zero_and_output(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["run", write_config(tmp_path, GAMMA_BOUND), "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["meta"]["assertions"]["passed"] is True

    def test_exit_one_on_config_error(self, tmp_path, capsys):
        bad = dict(GAMMA_BOUND, schedule=[4, 4])
        code = main(["run", write_config(tmp_path, bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert "schedule" in err

    def test_exit_two_on_assertion_failure(self, tmp_path, capsys):
        cfg = dict(
            ALL_KINDS["norm"],
            **{"assert": {"classification": "vanishing"}},
        )
        code = main(["run", write_config(tmp_path, cfg)])
        assert code == 2
        assert "assertion failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(ALL_KINDS["norm"], **{"assert": {"classification": None}}),
            dict(ALL_KINDS["commutant"], probes=[], **{"assert": {"classification": None}}),
        ],
        ids=["norm", "no_series"],
    )
    def test_null_classification_checks_nothing(self, cfg, tmp_path, capsys):
        # validate accepts a null classification, so run must not check it
        path = write_config(tmp_path, cfg)
        assert main(["validate", path]) == 0
        assert main(["run", path, "--out", str(tmp_path / "r.json")]) == 0
        assert "assertion failed" not in capsys.readouterr().err

    @pytest.mark.parametrize("key", sorted(cli._ASSERT))
    def test_assert_keys_validated_alike(self, key, tmp_path, capsys):
        # every assert key, from the table run and parse_config both read: a
        # null value checks nothing, an invalid one stops validate and run alike
        for cfg in (ALL_KINDS["norm"], dict(ALL_KINDS["commutant"], probes=[])):
            path = write_config(tmp_path, dict(cfg, **{"assert": {key: None}}))
            assert main(["validate", path]) == 0
            assert main(["run", path, "--out", str(tmp_path / "r.json")]) == 0
            assert "assertion failed" not in capsys.readouterr().err
        path = write_config(tmp_path, dict(ALL_KINDS["norm"], **{"assert": {key: {"no": 1}}}))
        err = []
        for command in ("validate", "run"):
            assert main([command, path]) == 1
            err.append(capsys.readouterr().err.splitlines())
        assert err[0] == err[1]
        assert len(err[0]) == 1 and err[0][0].startswith(f"invalid: assert.{key}: ")

    @pytest.mark.parametrize(
        "kind, path",
        [("norm", (name,)) for name, *_ in cli._CONFIG_FIELDS]
        + [
            (kind, (name,))
            for kind, experiment in sorted(cli.EXPERIMENTS.items())
            for name, _, *default in experiment.fields
            if default
        ]
        + [("norm", (section, key)) for section, keys in cli._SECTIONS.items() for key in keys],
        ids=lambda v: ".".join(v) if isinstance(v, tuple) else v,
    )
    def test_null_means_absent(self, kind, path, tmp_path, capsys):
        *section, key = path
        absent = copy.deepcopy(ALL_KINDS[kind])
        (absent.setdefault(section[0], {}) if section else absent).pop(key, None)
        null = copy.deepcopy(absent)
        (null[section[0]] if section else null)[key] = None
        # one --out path for both, since the report echoes it
        out, reports = tmp_path / "r", []
        for cfg in (absent, null):
            config = write_config(tmp_path, cfg)
            assert main(["validate", config]) == 0
            assert main(["run", config, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert "invalid" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, key",
        [
            (dict(ALL_KINDS["norm"], assertt={"max_value": 0.1}), "assertt"),
            (dict(ALL_KINDS["norm"], methd="dense"), "methd"),
            (dict(ALL_KINDS["commutant"], probe={"matrix": "pauli1", "sites": [1]}), "probe"),
            (dict(ALL_KINDS["norm"], **{"assert": {"max_valu": 0.1}}), "assert.max_valu"),
            (dict(ALL_KINDS["norm"], output={"fromat": "csv"}), "output.fromat"),
        ],
        ids=["assert_misspelled", "method_misspelled", "probe_in_commutant",
             "assert_key", "output_key"],
    )
    def test_unknown_keys_refused(self, cfg, key, tmp_path, capsys):
        path = write_config(tmp_path, cfg)
        for command in ("validate", "run"):
            assert main([command, path]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"invalid: {key}: unknown key; ")

    @pytest.mark.parametrize(
        "cfg, key",
        [
            (dict(ALL_KINDS["norm"], sequence={"kind": "translated", "op": "pauli1", "ofset": 1}),
             "sequence.ofset"),
            (dict(GAMMA_BOUND, sequence={
                "kind": "gamma", "seed": {"matrix": "pauli3", "sites": [1], "site": [2]}}),
             "sequence.seed.site"),
            # a label is read on probes only
            (dict(ALL_KINDS["variance"], observable={
                "matrix": "pauli3", "sites": [1], "label": "z"}), "observable.label"),
            (dict(GAMMA_BOUND, probe={"matrix": "pauli1", "sites": [1], "lable": "x"}),
             "probe.lable"),
            (dict(ALL_KINDS["commutant"], probes=[{"matrix": "pauli1", "sites": [1], "sties": 2}]),
             "probes[0].sties"),
            (dict(CLASSICAL, sequence={
                "kind": "cyclic-average", "f": {"named": "cos_q", "site": 1}, "g": 1}),
             "sequence.g"),
            (dict(CLASSICAL, probe={"named": "cos_p", "site": 1, "sight": 2}), "probe.sight"),
            (dict(CLASSICAL, probe={"terms": [{"amplitude": 1, "freqs": [[1, 0, 1]]}], "site": 2}),
             "probe.site"),
            (dict(CLASSICAL, probe={"terms": [{"amplitude": 1, "freqs": [[1, 0, 1]], "freq": []}]}),
             "probe.terms[0].freq"),
            (dict(EXPECT, state={"rho": [[1, 0], [0, 0]], "roh": 1}), "state.roh"),
        ],
        ids=["sequence", "local_operator", "label_off_probe", "probe", "probes", "classical",
             "named_trig", "trig_terms", "trig_term", "state"],
    )
    def test_unknown_nested_keys_refused(self, cfg, key, tmp_path, capsys):
        path = write_config(tmp_path, cfg)
        for command in ("validate", "run"):
            assert main([command, path]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"invalid: {key}: unknown key; ")

    @pytest.mark.parametrize(
        "cfg, key",
        [
            (dict(GAMMA_BOUND, probe={"matrix": "pauli1", "sites": [1], "label": 5}),
             "probe.label"),
            (dict(ALL_KINDS["commutant"], probes=[{"matrix": "pauli1", "sites": [1], "label": 5}]),
             "probes[0].label"),
        ],
        ids=["probe", "probes"],
    )
    def test_probe_label_must_be_a_string(self, cfg, key, tmp_path, capsys):
        path = write_config(tmp_path, cfg)
        for command in ("validate", "run"):
            assert main([command, path]) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"invalid: {key}: expected a string, got 5"
            ]

    @pytest.mark.parametrize(
        "sequence",
        [{"kind": "uniform-product", "op": "pauli1"},
         {"kind": "parity-product", "odd": "pauli1", "even": "pauli2"}],
        ids=["uniform", "parity"],
    )
    def test_product_sequences_against_default_probes(self, sequence, tmp_path, capsys):
        # the two-block probe meets these products on two separate sites; with
        # N - 2 spectators each commutator is still one exact term at N = 32
        cfg = {"experiment": "commutant", "schedule": [4, 8, 16, 32], "sequence": sequence}
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        series = json.loads(capsys.readouterr().out)["series"]
        (probe,) = [s for s in series if s["label"] == "pauli1*pauli3@1,2"]
        assert [p["value"] for p in probe["points"]] == [2.0] * 4

    def test_null_probe_label_counts_as_absent(self, tmp_path, capsys):
        probes = [{"matrix": "pauli1", "sites": [1], "label": None}]
        path = write_config(tmp_path, dict(ALL_KINDS["commutant"], probes=probes))
        assert main(["run", path]) == 0
        series = json.loads(capsys.readouterr().out)["series"]
        assert [s["label"] for s in series] == ["pauli1@1"]

    @pytest.mark.parametrize(
        "flags",
        [["--format", "xml"], ["--seed", "x"], ["--dense-cap", "1.5"], ["--bogus"]],
        ids=["format", "seed", "dense_cap", "unknown_flag"],
    )
    def test_bad_flags_exit_one(self, flags, tmp_path, capsys):
        # exit 2 means a failed assertion, so a usage error may not use it
        assert main(["run", write_config(tmp_path, GAMMA_BOUND), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: spintail")
        assert flags[0] in captured.err

    def test_help_exits_zero(self, capsys):
        assert main(["run", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: spintail run")

    @pytest.mark.parametrize(
        "cfg, estimator",
        [(GAMMA_BOUND, "gamma_bound_check"), (MUTUAL, "mutual_commutator_trace")],
        ids=["gamma_bound", "mutual"],
    )
    def test_bound_violation_fails(self, cfg, estimator, tmp_path, capsys, monkeypatch):
        real = getattr(cli, estimator)
        violated = cfg["schedule"][:2]

        def violating(*args, **kwargs):
            return replace(real(*args, **kwargs), bound_violations=tuple(violated))

        monkeypatch.setattr(cli, estimator, violating)
        out = tmp_path / "r.json"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        failure = f"series commutator: bound violated at N in {violated}"
        assert json.loads(out.read_text())["meta"]["assertions"] == {
            "passed": False, "failures": [failure]
        }
        assert capsys.readouterr().err.splitlines() == [f"assertion failed: {failure}"]

    @pytest.mark.parametrize("kind", sorted(ALL_KINDS))
    def test_verbose_times_every_point(self, kind, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPINTAIL_VERBOSE", "1")
        out = tmp_path / "r.json"
        main(["run", write_config(tmp_path, ALL_KINDS[kind]), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        series = json.loads(out.read_text())["series"]
        assert series
        for s in series:
            for p in s["points"]:
                prefix = f"[timing] {s['label']} N={p['n']}: "
                lines = [line for line in err if line.startswith(prefix)]
                assert len(lines) == 1, prefix
                # the seconds, then the route of a norm point; no route on any other
                tail = lines[0][len(prefix):].split()[1:]
                if kind == "norm":  # a shift average of a one-site seed
                    assert tail == ["decoupled"]
                elif kind in ("classical-decay", "expect", "variance"):
                    assert tail == []

    def test_validate_ok(self, tmp_path, capsys):
        code = main(["validate", write_config(tmp_path, GAMMA_BOUND)])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_lists_all_problems(self, tmp_path, capsys):
        bad = {"experiment": "frobnicate", "schedule": [4, 4]}
        code = main(["validate", write_config(tmp_path, bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert "experiment" in err and "schedule" in err

    def test_exit_one_on_unwritable_report(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        code = main(["run", write_config(tmp_path, GAMMA_BOUND), "--out", str(out)])
        assert code == 1
        assert "error: cannot write report:" in capsys.readouterr().err

    def test_out_flag_with_non_object_output(self, tmp_path, capsys):
        cfg = dict(GAMMA_BOUND, output=5)
        out = tmp_path / "r.json"
        code = main(["run", write_config(tmp_path, cfg), "--out", str(out), "--format", "csv"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["invalid: output: expected an object"]
        assert not out.exists()

    def test_out_flag_with_null_output(self, tmp_path):
        cfg = dict(GAMMA_BOUND, output=None)
        out = tmp_path / "r.csv"
        code = main(["run", write_config(tmp_path, cfg), "--out", str(out), "--format", "csv"])
        assert code == 0
        assert out.read_text().startswith("label,n,value")

    def test_schema_subcommand(self, capsys):
        assert main(["schema"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["title"] == "spintail experiment report"

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            [
                "run",
                write_config(tmp_path, GAMMA_BOUND),
                "--format",
                "csv",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("label,n,value")

    def test_dense_cap_flag_threads_through(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            [
                "run",
                write_config(tmp_path, ALL_KINDS["norm"]),
                "--dense-cap",
                "16",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["meta"]["dense_cap"] == 16
        # values still correct when the cap forces the iterative path
        for p in obj["series"][0]["points"]:
            assert abs(p["value"] - 1.0) <= 1e-8

    def test_dense_method_over_cap_names_iterative(self, tmp_path, capsys):
        cfg = dict(ALL_KINDS["norm"], schedule=[2, 3, 4, 5], method="dense", dense_cap=16)
        out = tmp_path / "r.json"
        code = main(["run", write_config(tmp_path, cfg), "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: dense norm at dimension 32 exceeds cap 16; use method='iterative'"
        ]
        assert captured.out == ""
        assert not out.exists()

    def test_capacity_refusal_at_a_large_volume_is_one_error_line(self, tmp_path, capsys):
        # 2**20000 has over 4300 digits, which Python will not print in decimal;
        # the refusal comes before any apply plan is compiled
        cfg = {"experiment": "norm", "schedule": [20000],
               "sequence": {"kind": "sum", "left": {"kind": "uniform-product", "op": "pauli1"},
                            "right": {"kind": "uniform-product", "op": "pauli3"}}}
        t0 = time.perf_counter()
        assert main(["run", write_config(tmp_path, cfg)]) == 1
        assert time.perf_counter() - t0 < 1
        assert capsys.readouterr().err.splitlines() == [
            "error: iterative norm needs state vectors of length 2**20000 "
            "(8 * 2**20000 bytes), above the cap of 134217728 bytes"
        ]

    def test_volume_past_the_index_range_runs(self, tmp_path, capsys):
        # a schedule point above sys.maxsize, where len() refuses a range of sites
        cfg = {"experiment": "norm", "schedule": [2, 10**20],
               "sequence": {"kind": "uniform-product", "op": "pauli1"}}
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        (series,) = json.loads(capsys.readouterr().out)["series"]
        assert [(p["n"], p["value"]) for p in series["points"]] == [(2, 1.0), (10**20, 1.0)]

    def test_gamma_bound_refuses_other_sequence_kinds(self, tmp_path, capsys):
        cfg = dict(
            GAMMA_BOUND,
            sequence={"kind": "local", "op": {"matrix": "pauli3", "sites": [1]}},
        )
        assert main(["run", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "invalid: sequence: gamma-bound needs a sequence of kind 'gamma'"
        ]

    @pytest.mark.parametrize(
        "cfg, problem",
        [
            (
                dict(GAMMA_BOUND, schedule=[4, 8, 16, 32, 64],
                     probe={"matrix": "pauli1", "sites": [20]}),
                "probe support (20,) exceeds smallest volume 4",
            ),
            (
                dict(CLASSICAL, schedule=[64, 128, 256, 512],
                     probe={"named": "cos_p", "site": 100}),
                "probe support (100,) exceeds smallest volume 64",
            ),
        ],
        ids=["gamma-bound", "classical-decay"],
    )
    def test_probe_outside_smallest_volume_exits_one(self, cfg, problem, tmp_path, capsys):
        # commutant skips such a probe with a warning; a single-probe kind
        # has nothing left to trace, so it refuses the run
        assert main(["run", write_config(tmp_path, cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {problem}"]
        assert captured.out == ""

    def test_block_product_lengths_default_to_n_plus_one(self, tmp_path):
        rho = np.array([[0.9, 0.2], [0.2, 0.1]])  # <sigma1> = 0.4, <sigma3> = 0.8
        cfg = {
            "experiment": "expect",
            "schedule": list(range(1, 13)),
            "sequence": {"kind": "block-product", "even": "pauli1", "odd": "pauli3"},
            "state": {"rho": rho.tolist()},
        }
        out = tmp_path / "r.json"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        (re_series,) = [s for s in json.loads(out.read_text())["series"]
                        if s["label"] == "expectation.re"]
        seq = spintail.BlockProduct(spintail.pauli(1), spintail.pauli(3))
        state = spintail.product_state(rho)
        # B_n = n + 1: sites 1 | 2-3 | 4-6 | 7-10 | 11-15, even blocks carry sigma1
        even_sites = [1, 4, 5, 6, 11, 12, 13, 14, 15]
        for p in re_series["points"]:
            n = p["n"]
            assert p["value"] == spintail.expectation(state, seq.eval(n), n).real
            k = sum(s <= n for s in even_sites)
            assert p["value"] == pytest.approx(0.4**k * 0.8 ** (n - k), rel=1e-12)

    def test_console_entry_point(self, tmp_path):
        # exercise the process-level contract end to end
        path = write_config(tmp_path, MUTUAL)
        # the child process imports the same package as this session
        src = str(Path(spintail.__file__).resolve().parents[1])
        paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        proc = subprocess.run(
            [sys.executable, "-m", "spintail.cli", "run", path],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        )
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj["meta"]["experiment"] == "mutual"


def _tracing():
    """The benchmark's tracing module, imported from ``bench/``."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import tracing
    finally:
        sys.path.pop(0)
    return tracing


def _install_tracer():
    """The benchmark's tracer, installed on the spintail modules."""
    from spintail import asymptotics, classical, cli, localops, sequences, shifts, states

    tracer = _tracing().Tracer()
    try:
        tracer.install(cli=cli, asymptotics=asymptotics, sequences=sequences, shifts=shifts,
                       localops=localops, states=states, classical=classical)
    except BaseException:
        tracer.uninstall()
        raise
    return tracer


def test_trace_mode_names_bound():
    # the benchmark's --trace mode wraps these module attributes by name
    _install_tracer().uninstall()


@pytest.mark.parametrize("golden, cfg, spans", [
    ("classical_decay_seed42.json", CLASSICAL,
     {"shifts.gamma_average", "classical.poisson_bracket"}),
    ("gamma_bound_seed42.json", GAMMA_BOUND, {"shifts.gamma_average"}),
], ids=["classical-decay", "gamma-bound"])
def test_traced_run_records_the_shared_average(golden, cfg, spans):
    # the tracer's hooks read every value they wrap (a sequence value's
    # terms, a bracket's coefficients); a traced run keeps the golden bytes
    tracer = _install_tracer()
    try:
        report, _ = run(parse_config(json.dumps(cfg)))
    finally:
        tracer.uninstall()
    assert spans <= {span[0] for span in tracer.spans}
    assert emit(report, "json") == (DATA / golden).read_bytes()


# the "norm rotated s1s1" case of the benchmark's norm_dense workload at seed 1:
# the shift average of one Haar-rotated sigma1 on each of two sites, complex and
# connected by its wrap bond, so N >= 7 (dim 128) is above the complex crossover
# and takes the Krylov route
_ROTATED_S1 = [
    [[0.8869988415130227, -5.9912143413543335e-18], [0.04713534921373625, -0.45935967825774]],
    [[0.047135349213736286, 0.45935967825774], [-0.8869988415130227, 5.90029627912415e-18]],
]
ROTATED_S1S1_NORM = {
    "assert": {"all_converged": True}, "experiment": "norm", "method": "auto",
    "schedule": [4, 5, 6, 7, 8, 9, 10], "seed": 1,
    "sequence": {"kind": "gamma", "seed": {"sites": [1, 2], "matrix": [_ROTATED_S1] * 2}},
}


def test_traced_krylov_norms_count_as_iterative():
    # the tracer names a norm's route by its children: a dense eigensolve
    # directly under the norm span is the dense route, so a Krylov norm's
    # set-up must not call one
    tracer = _install_tracer()
    try:
        run(parse_config(json.dumps(ROTATED_S1S1_NORM)))
    finally:
        tracer.uninstall()
    metrics = _tracing().layer_metrics(tracer.spans, tracer.counts, 1.0)
    krylov = [n for n in ROTATED_S1S1_NORM["schedule"] if n >= 7]
    assert metrics["localops.norm_iterative_calls"] == len(krylov)
    assert metrics["localops.norm_dense_calls"] == len(ROTATED_S1S1_NORM["schedule"]) - len(krylov)
    assert metrics["localops.norm_iterations"] > 0


# JSON types of the report schema; a bool is a JSON boolean, never a number
_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "integer": int, "number": (int, float)}


def _schema_problems(value, schema, path="$"):
    """Where ``value`` breaks ``schema``: its type, enum, required keys, unknown keys and items."""
    kind = schema.get("type")
    if kind and (not isinstance(value, _JSON_TYPES[kind])
                 or (isinstance(value, bool) and kind != "boolean")):
        return [f"{path}: expected {kind}, got {value!r}"]
    if "enum" in schema and value not in schema["enum"]:
        return [f"{path}: {value!r} not in {schema['enum']}"]
    problems = []
    if isinstance(value, dict):
        problems += [f"{path}: missing {k}" for k in schema.get("required", ()) if k not in value]
        if "properties" in schema:
            for key, item in value.items():
                if key in schema["properties"]:
                    problems += _schema_problems(item, schema["properties"][key], f"{path}.{key}")
                else:
                    problems.append(f"{path}.{key}: not in the schema")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            problems += _schema_problems(item, schema["items"], f"{path}[{i}]")
    return problems


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.json")))
def test_golden_reports_match_schema(name):
    assert _schema_problems(json.loads((DATA / name).read_bytes()), cli.REPORT_SCHEMA) == []


@pytest.mark.parametrize("kind", sorted(ALL_KINDS))
def test_fresh_reports_match_schema(kind):
    report, _ = run(parse_config(json.dumps(ALL_KINDS[kind])))
    assert _schema_problems(json.loads(emit(report, "json")), cli.REPORT_SCHEMA) == []


@pytest.mark.parametrize(
    "path, value, problem",
    [
        (("schedule", 0), True, "$.schedule[0]: expected integer"),
        (("series", 0, "points", 0, "converged"), 1, "converged: expected boolean"),
        (("series", 0, "classification"), "vanished", "not in"),
        (("series", 0, "extra"), 0, "$.series[0].extra: not in the schema"),
        (("meta", "seed"), 4.0, "$.meta.seed: expected integer"),
    ],
)
def test_schema_walker_flags_breaks(path, value, problem):
    # the walker is not vacuous: one wrong key or type anywhere is reported
    obj = json.loads((DATA / "norm_seed42.json").read_bytes())
    *parents, last = path
    target = obj
    for step in parents:
        target = target[step]
    target[last] = value
    problems = _schema_problems(obj, cli.REPORT_SCHEMA)
    assert len(problems) == 1 and problem in problems[0]
