import copy
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import spintail
from spintail import dense_matrix
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


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestParseConfig:
    def test_minimal_gamma_bound_valid(self):
        cfg = parse_config(json.dumps(GAMMA_BOUND))
        assert cfg.kind == "gamma-bound"
        assert cfg.schedule.points == (4, 6, 8, 10)
        assert cfg.probe[0] == "pauli1@1"

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


class TestLocalOperatorLiterals:
    def test_complex_two_site_literal_is_one_matrix(self):
        rng = np.random.default_rng(44)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        literal = [[[float(x.real), float(x.imag)] for x in row] for row in m]
        cfg = parse_config(dict(GAMMA_BOUND, probe={"matrix": literal, "sites": [1, 2]}))
        _, op = cfg.probe
        assert op.support == (1, 2)
        assert np.array_equal(dense_matrix(op, 2), m)

    def test_per_site_lists_unchanged(self):
        # frozen with the parser that read every list of matrices as per-site
        golden = (DATA / "gamma_bound_per_site_seed42.json").read_bytes()
        report, _ = run(parse_config(json.dumps(PER_SITE_GAMMA_BOUND)))
        assert emit(report, "json") == golden


class TestRun:
    def test_gamma_bound_passes(self):
        report, failures = run(parse_config(json.dumps(GAMMA_BOUND)))
        assert failures == []
        label, rep = report.series[0]
        assert label == "commutator"
        assert rep.fitted_exponent == pytest.approx(-1.0, abs=0.05)
        assert rep.bound_violations == ()

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
        ],
        ids=["max_value", "max_value_signed", "missing_series", "classification",
             "targeted_and_capped", "every_check"],
    )
    def test_assertion_failure_strings(self, cfg, expected):
        report, failures = run(parse_config(cfg))
        assert failures == expected
        meta = json.loads(emit(report, "json"))["meta"]
        assert meta["assertions"] == {"passed": False, "failures": expected}

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
                assert sum(line.startswith(prefix) for line in err) == 1, prefix

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

    def test_gamma_bound_refuses_other_sequence_kinds(self, tmp_path, capsys):
        cfg = dict(
            GAMMA_BOUND,
            sequence={"kind": "local", "op": {"matrix": "pauli3", "sites": [1]}},
        )
        assert main(["run", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "invalid: sequence: gamma-bound needs a sequence of kind 'gamma'"
        ]

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


def test_trace_mode_names_bound():
    # the benchmark's --trace mode wraps these module attributes by name
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import tracing
    finally:
        sys.path.pop(0)
    from spintail import asymptotics, classical, cli, localops, sequences, shifts, states

    tracer = tracing.Tracer()
    try:
        tracer.install(cli=cli, asymptotics=asymptotics, sequences=sequences, shifts=shifts,
                       localops=localops, states=states, classical=classical)
    finally:
        tracer.uninstall()
