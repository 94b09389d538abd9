"""CLI behavior: reports, exit codes, config validation."""

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli_golden import GOLDEN, JOBS, run_job

import cartanflat
from cartanflat import cli
from cartanflat.cli import (
    _COMMANDS,
    _FIELDS,
    _MAX_STEPS_PER_UNIT,
    _MAX_TRIALS,
    _REQUIRED,
    _get_grid,
    _parser,
    _plain_args,
    _read,
    main,
)
from cartanflat.errors import ConfigError
from cartanflat.exprlang import MAX_DEPTH
from cartanflat.metricspace import ChartMetric
from cartanflat.presets import KINK_TEXT, PRESET_NAMES, get_preset, preset_metric


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip().startswith("{") else None
    return code, report, out.err


#: --out CSV traces recorded from earlier runs of the same jobs
RECORDED = Path(__file__).parent / "recorded"


def _stable(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if "wall_time_s" not in line)


def test_flatness_pass(capsys):
    code, report, _ = _run(
        capsys, "flatness", "--preset", "half_plane", "--variant", "h", "--grid", "10"
    )
    assert code == 0
    assert report["pass"] is True
    assert report["max_residual"] <= 1e-9
    assert report["points"] == 100
    assert report["version"] == "cartanflat 0.1.0"
    assert report["command"] == "flatness"


def test_flatness_fail(capsys):
    code, report, _ = _run(
        capsys, "flatness", "--preset", "half_plane", "--variant", "s", "--grid", "10"
    )
    assert code == 1
    assert report["pass"] is False
    assert 1.9 <= report["max_residual"] <= 2.1


def test_flatness_tol_override(capsys):
    code, report, _ = _run(
        capsys,
        "flatness", "--preset", "half_plane", "--variant", "s", "--grid", "6", "--tol", "3.0",
    )
    assert code == 0
    assert report["pass"] is True


def test_reports_are_deterministic(capsys):
    argv = ["flatness", "--preset", "sphere2", "--variant", "s", "--grid", "7"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert _stable(first) == _stable(second)
    assert first.startswith("{")


def test_config_file_plus_override(tmp_path, capsys):
    config = tmp_path / "job.json"
    config.write_text(
        json.dumps({"preset": "half_plane", "variant": "s", "grid": 6, "tol": 1e-6})
    )
    code, report, _ = _run(capsys, "flatness", "--config", str(config), "--variant", "h")
    assert code == 0
    assert report["variant"] == "h"
    assert report["resolution"] == 6


def test_inline_metric_config(tmp_path, capsys):
    config = tmp_path / "job.json"
    config.write_text(
        json.dumps(
            {
                "metric": {
                    "names": ["x", "y"],
                    "box": [[-2.0, 2.0], [0.5, 4.0]],
                    "entries": [["1 / (y * y)", "0"], ["0", "1 / (y * y)"]],
                },
                "variant": "h",
                "grid": 6,
            }
        )
    )
    code, report, _ = _run(capsys, "flatness", "--config", str(config))
    assert code == 0
    assert report["pass"] is True
    assert report["metric"]["names"] == ["x", "y"]


def test_a_periodic_function_of_an_infinite_value_is_named_with_its_point(tmp_path, capsys):
    # x * 1e300 * 1e300 overflows to inf, which sin cannot take
    config = tmp_path / "job.json"
    metric = {
        "names": ["x", "y"],
        "box": [[0.5, 1], [0.5, 1]],
        "entries": [["2 + sin(x*1e300*1e300)", "0"], ["0", "1"]],
    }
    config.write_text(json.dumps({"metric": metric}))
    code, report, err = _run(capsys, "flatness", "--config", str(config))
    assert (code, report) == (2, None)
    assert err == "error: $.metric: sin of non-finite value inf at point (0.525, 0.525)\n"


@pytest.mark.parametrize(
    "config, path_fragment",
    [
        ({"preset": "half_plane", "metric": {}, "variant": "h"}, "$.preset"),
        ({"variant": "h"}, "$.preset"),
        ({"preset": "nosuch", "variant": "h"}, "$.preset"),
        ({"preset": "half_plane", "variant": "h", "gird": 5}, "$.gird"),
        ({"preset": "half_plane"}, "$.variant"),
        ({"preset": "half_plane", "variant": "h", "grid": 1}, "$.grid"),
        ({"preset": "half_plane", "variant": "h", "tol": -1.0}, "$.tol"),
        (
            {
                "metric": {"names": ["x", "y"], "box": [[0, 1], [1, 0]], "entries": [["1", "0"], ["0", "1"]]},
                "variant": "h",
            },
            "$.metric.box[1]",
        ),
        (
            {
                "metric": {"names": ["x", "y"], "box": [[0, 1], [0, 1]], "entries": [["1", "0"]]},
                "variant": "h",
            },
            "$.metric.entries",
        ),
        (
            {
                "metric": {"names": ["x", "y"], "box": [[0, 1], [0, 1]], "entries": [["1", "x"], ["0", "1"]]},
                "variant": "h",
            },
            "$.metric.entries",
        ),
        (
            {
                "metric": {"names": ["x", "x"], "box": [[1, 2], [1, 2]], "entries": [["1", "0"], ["0", "1"]]},
                "variant": "h",
            },
            "$.metric.names",
        ),
    ],
)
def test_config_errors_name_the_field(tmp_path, capsys, config, path_fragment):
    config_file = tmp_path / "job.json"
    config_file.write_text(json.dumps(config))
    code, report, err = _run(capsys, "flatness", "--config", str(config_file))
    assert code == 2
    assert report is None
    assert path_fragment in err


_ONE_D_METRIC = {"names": ["x"], "box": [[0.5, 2.0]], "entries": [["1/x^2"]]}


@pytest.mark.parametrize(
    "argv",
    [["curvature"], ["flatness", "--variant", "h"], ["identity", "--variant", "h"]],
)
def test_checks_needing_a_plane_refuse_one_dimensional_metrics(tmp_path, capsys, argv):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"metric": _ONE_D_METRIC}))
    code, report, err = _run(capsys, *argv, "--config", str(config))
    assert code == 2
    assert report is None
    assert "$.metric" in err


def test_compat_checks_one_dimensional_metrics(tmp_path, capsys):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"metric": _ONE_D_METRIC}))
    code, report, _ = _run(capsys, "compat", "--variant", "h", "--config", str(config))
    assert code == 0
    assert report["pass"] is True


# passes the 4 x 4 construction sample; g_yy dips below zero near (0.6, 0.6)
_DIPPING_METRIC = {
    "names": ["x", "y"],
    "box": [[-1, 1], [-1, 1]],
    "entries": [["1", "0"], ["0", "1.2 - 2*exp(-100*((x-0.6)^2 + (y-0.6)^2))"]],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature"],
        ["flatness", "--variant", "h"],
        ["flatness", "--variant", "s"],
        ["identity", "--variant", "h"],
        ["compat", "--variant", "h"],
    ],
)
def test_scans_refuse_metrics_indefinite_at_a_grid_point(tmp_path, capsys, argv):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"metric": _DIPPING_METRIC, "grid": 21}))
    code, report, err = _run(capsys, *argv, "--config", str(config))
    assert code == 2
    assert report is None
    # the first grid point in row-major order where g_yy (the smaller
    # eigenvalue) is not positive, found by plain arithmetic
    axis = [-0.9 + 1.8 * k / 20 for k in range(21)]
    first = next(
        (x, y)
        for x in axis
        for y in axis
        if 1.2 - 2 * math.exp(-100 * ((x - 0.6) ** 2 + (y - 0.6) ** 2)) <= 1e-10
    )
    assert "not positive definite" in err
    found = err.split("at point (")[1].split(")")[0]
    assert tuple(float(v) for v in found.split(", ")) == pytest.approx(first, abs=1e-12)


def test_develop_refuses_a_path_through_an_indefinite_dip(tmp_path, capsys):
    config = tmp_path / "job.json"
    path = [{"start": [0.3, 0.3], "end": [0.9, 0.9]}]
    job = {"metric": _DIPPING_METRIC, "variant": "h", "steps_per_unit": 64, "path": path}
    config.write_text(json.dumps(job))
    code, report, err = _run(capsys, "develop", "--config", str(config))
    assert code == 2
    assert report is None
    assert "not positive definite" in err
    # the point named lies on the diagonal, inside the dip
    x, y = (float(v) for v in err.split("at point (")[1].split(")")[0].split(", "))
    assert x == y
    assert 1.2 - 2 * math.exp(-100 * ((x - 0.6) ** 2 + (y - 0.6) ** 2)) <= 1e-10


def test_flatness_over_the_grid_point_budget_exits_2_at_once(capsys):
    started = time.perf_counter()
    code, report, err = _run(
        capsys, "flatness", "--preset", "sphere3", "--variant", "s", "--grid", "3000"
    )
    assert code == 2 and report is None
    assert "$.grid" in err and "budget" in err
    assert time.perf_counter() - started < 10.0


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "--preset", "sphere3", "--grid", "101"],
        ["identity", "--preset", "sphere3", "--variant", "s", "--grid", "101"],
        ["compat", "--preset", "sphere3", "--variant", "s", "--grid", "101"],
        ["zcr", "--grid", "1001"],
    ],
)
def test_grid_point_budget_applies_to_every_scan(capsys, argv):
    code, report, err = _run(capsys, *argv)
    assert code == 2 and report is None
    assert "$.grid" in err and "1,000,000" in err


def test_grid_point_budget_is_inclusive():
    assert _get_grid({"grid": 100}, 20, 3) == 100
    assert _get_grid({"grid": 1000}, 20, 2) == 1000
    with pytest.raises(ConfigError):
        _get_grid({"grid": 1001}, 20, 2)


def test_work_field_maxima_are_inclusive():
    for name, bound in (("trials", _MAX_TRIALS), ("steps_per_unit", _MAX_STEPS_PER_UNIT)):
        assert _read({name: bound}, name) == bound
        with pytest.raises(ConfigError, match=rf"\$\.{name}: must be at most"):
            _read({name: bound + 1}, name)


_SEGMENT = {"start": [0.0, 1.0], "end": [1.0, 2.0]}


@pytest.mark.parametrize(
    "argv, config, path",
    [
        (
            ["identity", "--preset", "half_plane", "--variant", "h", "--grid", "2"],
            {"trials": _MAX_TRIALS + 1},
            "$.trials",
        ),
        (
            ["transport", "--preset", "half_plane"],
            {"curve": {"kind": "line", **_SEGMENT}, "steps_per_unit": _MAX_STEPS_PER_UNIT + 1},
            "$.steps_per_unit",
        ),
        (
            ["develop", "--preset", "half_plane", "--variant", "h"],
            {"path": [_SEGMENT], "steps_per_unit": _MAX_STEPS_PER_UNIT + 1},
            "$.steps_per_unit",
        ),
    ],
)
def test_work_fields_over_their_maxima_exit_2_at_once(tmp_path, capsys, argv, config, path):
    config_file = tmp_path / "job.json"
    config_file.write_text(json.dumps(config))
    started = time.perf_counter()
    code, report, err = _run(capsys, *argv, "--config", str(config_file))
    assert code == 2 and report is None
    assert f"{path}: must be at most" in err
    assert time.perf_counter() - started < 10.0


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "argv, config, path",
    [
        (["curvature", "--preset", "half_plane", "--grid", "3", "--expected", "nan"], None, "$.expected"),
        (
            ["flatness", "--preset", "half_plane", "--variant", "s", "--grid", "3", "--tol", "inf"],
            None,
            "$.tol",
        ),
        (["flatness"], {"preset": "half_plane", "variant": "h", "grid": 3, "tol": _NAN}, "$.tol"),
        (["curvature"], {"preset": "half_plane", "grid": 3, "expected": 10**400}, "$.expected"),
        (
            ["transport"],
            {"preset": "half_plane", "curve": {"kind": "circle", "center": [0.0, 2.0], "radius": _INF}},
            "$.curve.radius",
        ),
        (
            ["transport"],
            {"preset": "half_plane", "curve": {"kind": "line", "start": [0.0, _NAN], "end": [1.0, 2.0]}},
            "$.curve.start[1]",
        ),
        (
            ["develop"],
            {"preset": "half_plane", "variant": "h", "path": [{"start": [0.0, 1.0], "end": [-_INF, 2.0]}]},
            "$.path[0].end[0]",
        ),
        (["zcr"], {"box": [[-2, 2], [-_INF, 2]], "grid": 3}, "$.box[1]"),
        (
            ["flatness"],
            {
                "metric": {"names": ["x", "y"], "box": [[0, 1], [0, _INF]], "entries": [["1", "0"], ["0", "1"]]},
                "variant": "h",
            },
            "$.metric.box[1]",
        ),
    ],
)
def test_non_finite_numbers_exit_2(tmp_path, capsys, argv, config, path):
    if config is not None:
        config_file = tmp_path / "job.json"
        config_file.write_text(json.dumps(config))
        argv = [*argv, "--config", str(config_file)]
    code, report, err = _run(capsys, *argv)
    assert code == 2 and report is None
    assert f"{path}: must be a finite number" in err


def _subcommand_flags() -> dict:
    """Each subcommand's field flags (all but --help, --config, --out)."""
    parser = _parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a for a in sub._actions if a.option_strings and a.dest not in ("help", "config", "out")]
        for name, sub in subparsers.choices.items()
    }


_FLAG_VALUES = {"preset": "half_plane", "u": "x1 + x2"}


@pytest.mark.parametrize("command", list(_subcommand_flags()))
def test_advertised_flags_are_accepted(capsys, command):
    for action in _subcommand_flags()[command]:
        value = action.choices[0] if action.choices else _FLAG_VALUES.get(action.dest, "2")
        code, _, err = _run(capsys, command, action.option_strings[0], value)
        assert code in (0, 1, 2)
        assert "unknown field" not in err, (action.option_strings, err)


_SCHEMA_TYPES = {str: "string", int: "integer", float: "number"}


def test_config_schema_matches_the_field_tables():
    schema = json.loads((Path(__file__).parents[1] / "docs" / "config-schema.json").read_text())
    properties = schema["properties"]
    takers: dict = {}
    for command, spec in _COMMANDS.items():
        for field in sorted(spec.fields):
            takers.setdefault(field, []).append(command)
    assert set(properties) == set(takers)
    for name, prop in properties.items():
        assert prop["x-commands"] == takers[name], name
        defaults = {c: _COMMANDS[c].scalars[name] for c in takers[name] if name in _COMMANDS[c].scalars}
        assert prop.get("x-required", []) == [c for c, d in defaults.items() if d is _REQUIRED], name
        assert prop.get("x-defaults", {}) == {
            c: d for c, d in defaults.items() if d is not _REQUIRED
        }, name
    # scalar fields are top-level properties or, for kind and radius, curve properties
    curve = schema["definitions"]["curve"]["properties"]
    assert {n for c in _COMMANDS.values() for n in c.scalars} <= set(_FIELDS)
    for name, field in _FIELDS.items():
        prop = properties[name] if name in properties else curve[name]
        assert prop["type"] == _SCHEMA_TYPES[field.kind], name
        assert prop.get("enum") == (list(field.choices) if field.choices else None), name
        assert prop.get("minimum") == field.minimum, name
        assert prop.get("maximum") == field.maximum, name
        assert prop.get("exclusiveMinimum") == (0 if field.positive else None), name


def test_unreadable_and_malformed_config(tmp_path, capsys):
    code, _, err = _run(capsys, "flatness", "--config", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read config file" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = _run(capsys, "flatness", "--config", str(broken))
    assert code == 2 and "not valid JSON" in err


def _square_metric(entry: str, other: str = "0") -> dict:
    return {"names": ["x", "y"], "box": [[-0.5, 0.5], [-0.5, 0.5]],
            "entries": [[entry, other], [other, entry]]}


def test_a_negative_zero_entry_is_still_symmetric(tmp_path, capsys):
    reports = []
    for zero in ("0", "-0"):
        config = tmp_path / "job.json"
        metric = {"names": ["x", "y"], "box": [[-1, 1], [-1, 1]], "entries": [["1", "0"], [zero, "1"]]}
        config.write_text(json.dumps({"metric": metric, "variant": "h", "grid": 3}))
        code, report, err = _run(capsys, "flatness", "--config", str(config))
        assert code == 1 and err == ""
        del report["wall_time_s"], report["metric"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["max_residual"] == 1.0


@pytest.mark.parametrize(
    "entry, offset",
    [
        # 3,000 nested brackets: refused at the one that nests too deep
        ("(" * 3000 + "1" + ")" * 3000, MAX_DEPTH),
        # a 1,600-term sum: "1 + x/100000" is 3 levels deep, each term adds one
        ("1" + " + x/100000" * 1600, len("1" + " + x/100000" * (MAX_DEPTH - 2)) + 1),
    ],
    ids=["brackets", "sum"],
)
def test_deep_metric_entries_exit_2_naming_the_entry(tmp_path, capsys, entry, offset):
    config = tmp_path / "job.json"
    metric = _square_metric("1")
    metric["entries"][1][0] = metric["entries"][0][1] = entry
    config.write_text(json.dumps({"metric": metric, "variant": "h", "grid": 3}))
    code, report, err = _run(capsys, "flatness", "--config", str(config))
    assert code == 2 and report is None
    assert err == (
        f"error: $.metric.entries[0][1]: expression nested deeper than {MAX_DEPTH} levels"
        f" (offset {offset})\n"
    )


def test_the_deepest_entry_parse_accepts_runs_every_check(tmp_path, capsys):
    # a chain of divisions: its derivatives grow fastest with its depth
    chain = "2" + " / (1 + x/100000)" * (MAX_DEPTH - 3)
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"metric": _square_metric(chain), "grid": 2}))
    for argv in (["flatness", "--variant", "h"], ["curvature"], ["identity", "--variant", "h", "--trials", "1"]):
        code, report, err = _run(capsys, *argv, "--config", str(config))
        assert code in (0, 1) and report is not None and err == "", argv
    config.write_text(json.dumps({"metric": _square_metric(chain + " / (1 + x/100000)"), "grid": 2}))
    code, _, err = _run(capsys, "flatness", "--variant", "h", "--config", str(config))
    assert code == 2 and "deeper than" in err


def test_huge_json_integers_exit_2(tmp_path, capsys):
    config = tmp_path / "job.json"
    config.write_text('{"preset": "sphere3", "variant": "s", "grid": ' + "1" * 5000 + "}")
    code, report, err = _run(capsys, "flatness", "--config", str(config))
    assert code == 2 and report is None
    assert err.startswith("error: $: cannot read config file: ") and err.count("\n") == 1
    config.write_text('{"preset": "sphere3", "variant": "s", "grid": ' + "1" * 1501 + "}")
    code, report, err = _run(capsys, "flatness", "--config", str(config))
    assert code == 2 and report is None
    assert err.startswith("error: $.grid: 1111") and err.endswith(
        "^3 points exceeds the budget of 1,000,000 grid points\n"
    )


def test_an_unexpected_exception_exits_2_in_one_line(capsys, monkeypatch):
    def broken(settings):
        raise RuntimeError("something broke\nacross two lines")

    monkeypatch.setitem(_COMMANDS, "presets", _COMMANDS["presets"]._replace(job=broken))
    code, report, err = _run(capsys, "presets")
    assert code == 2 and report is None
    assert err == "internal error: RuntimeError: something broke across two lines\n"


def test_presets_listing(capsys):
    code, report, _ = _run(capsys, "presets")
    assert code == 0
    assert report["pass"] is None
    names = [entry["name"] for entry in report["presets"]]
    assert names == list(PRESET_NAMES)


def test_curvature_with_preset_expectation(capsys):
    code, report, _ = _run(capsys, "curvature", "--preset", "sphere2", "--grid", "6")
    assert code == 0
    assert report["expected"] == 1.0
    assert report["max_residual"] <= 1e-9
    assert report["pass"] is True


def test_curvature_names_the_first_degenerate_coordinate_plane(tmp_path, capsys):
    # g_xx g_yy - g_xy^2 = 1e-14 x^2 falls below 1e-14 where x < 1: the
    # grid's first point already
    metric = {
        "names": ["x", "y"],
        "box": [[0.5, 2], [0.5, 2]],
        "entries": [["1e-7 * x", "0"], ["0", "1e-7 * x"]],
    }
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"metric": metric, "grid": 4}))
    code, report, err = _run(capsys, "curvature", "--config", str(config))
    assert code == 2
    assert report is None
    assert "degenerate coordinate plane at point (0.575, 0.575)" in err


def test_curvature_without_expectation_just_reports(capsys):
    code, report, _ = _run(capsys, "curvature", "--preset", "conformal_bump", "--grid", "5")
    assert code == 0
    assert report["pass"] is None
    assert report["min_curvature"] < report["max_curvature"]


def test_identity_and_compat_jobs(capsys):
    code, report, _ = _run(
        capsys,
        "identity", "--preset", "half_plane", "--variant", "h",
        "--grid", "3", "--trials", "3",
    )
    assert code == 0 and report["pass"] is True
    code, report, _ = _run(
        capsys, "compat", "--preset", "sphere2", "--variant", "s", "--grid", "4"
    )
    assert code == 0 and report["pass"] is True
    assert report["max_residual"] <= 1e-9


def test_transport_flat_loop_passes(tmp_path, capsys):
    config = tmp_path / "job.json"
    config.write_text(
        json.dumps(
            {
                "preset": "half_plane",
                "connection": "h",
                "curve": {"kind": "circle", "center": [0.0, 2.0], "radius": 0.5},
            }
        )
    )
    out = tmp_path / "trace.csv"
    code, report, _ = _run(capsys, "transport", "--config", str(config), "--out", str(out))
    assert code == 0
    assert report["closed"] is True
    assert report["identity_gap"] <= 1e-6
    with out.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t"] + [f"m{a}{b}" for a in range(3) for b in range(3)]
    assert len(rows) == report["steps"] + 2
    assert [float(v) for v in rows[1][1:]] == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert out.read_bytes() == (RECORDED / "transport_half_plane_circle.csv").read_bytes()


def test_transport_levi_civita_loop_detects_curvature(tmp_path, capsys):
    config = tmp_path / "job.json"
    config.write_text(
        json.dumps(
            {
                "preset": "half_plane",
                "connection": "lc",
                "curve": {"kind": "circle", "center": [0.0, 2.0], "radius": 0.5},
            }
        )
    )
    code, report, _ = _run(capsys, "transport", "--config", str(config))
    assert code == 1
    assert report["identity_gap"] >= 0.01


def test_transport_open_curve_has_no_pass_criterion(tmp_path, capsys):
    config = tmp_path / "job.json"
    config.write_text(
        json.dumps(
            {
                "preset": "half_plane",
                "curve": {"kind": "line", "start": [0.0, 1.0], "end": [1.0, 2.0]},
            }
        )
    )
    code, report, _ = _run(capsys, "transport", "--config", str(config))
    assert code == 0
    assert report["pass"] is None
    assert report["closed"] is False
    assert report["identity_gap"] is None


def test_transport_curve_validation(tmp_path, capsys):
    bad = {"preset": "half_plane", "curve": {"kind": "circle", "center": [0.0, 2.0]}}
    config = tmp_path / "job.json"
    config.write_text(json.dumps(bad))
    code, _, err = _run(capsys, "transport", "--config", str(config))
    assert code == 2 and "$.curve.radius" in err
    config.write_text(json.dumps({"preset": "half_plane"}))
    code, _, err = _run(capsys, "transport", "--config", str(config))
    assert code == 2 and "$.curve" in err


@pytest.mark.parametrize("end", [[0.5, 1.0], [0.5, 1.0 + 1e-13]])
def test_transport_refuses_a_line_with_nothing_to_transport_along(tmp_path, capsys, end):
    # such a line would read as a closed loop with trivial holonomy: a pass
    # over nothing
    config = tmp_path / "job.json"
    line = {"kind": "line", "start": [0.5, 1.0], "end": end}
    config.write_text(json.dumps({"preset": "half_plane", "curve": line}))
    code, report, err = _run(capsys, "transport", "--config", str(config))
    assert code == 2 and report is None
    assert err == "error: $.curve.end: must be more than 1e-12 from start\n"


@pytest.mark.parametrize(
    "path, field",
    [
        ([{"start": [0.5, 1.0], "end": [0.5, 1.0]}], "$.path[0].end"),
        (
            [{"start": [0.5, 1.0], "end": [0.7, 1.2]}, {"start": [0.7, 1.2], "end": [0.7, 1.2 + 1e-13]}],
            "$.path[1].end",
        ),
    ],
)
def test_develop_refuses_a_segment_with_nothing_to_develop_along(tmp_path, capsys, path, field):
    # its nodes would all be one point, trivially on the quadric: a pass over nothing
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"preset": "half_plane", "variant": "h", "path": path}))
    code, report, err = _run(capsys, "develop", "--config", str(config))
    assert code == 2 and report is None
    assert err == f"error: {field}: must be more than 1e-12 from start\n"


_HUGE_METRIC = {
    "names": ["x", "y"], "box": [[1, 2], [1, 2]], "entries": [["1e300*x", "0"], ["0", "1e300*y"]],
}


@pytest.mark.parametrize(
    "command, fields",
    [
        ("identity", {"variant": "h"}),
        ("curvature", {}),
        ("transport", {"curve": {"kind": "line", "start": [1.2, 1.2], "end": [1.8, 1.5]}}),
        ("develop", {"variant": "h", "path": [{"start": [1.2, 1.2], "end": [1.8, 1.5]}]}),
    ],
)
def test_a_metric_beyond_the_float_range_is_refused_without_a_warning(tmp_path, capsys, command, fields):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"metric": _HUGE_METRIC, **fields}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be an internal error
        code, report, err = _run(capsys, command, "--config", str(config))
    assert code == 2 and report is None
    assert err.startswith("error: $.metric: metric determinant is beyond the float range at point (")


#: per command that takes a metric, the fields it needs besides the metric
_METRIC_JOBS = {
    "curvature": {},
    "flatness": {"variant": "h"},
    "identity": {"variant": "h"},
    "compat": {"variant": "h"},
    "transport": {"curve": {"kind": "line", "start": [1.2, 1.2], "end": [1.8, 1.5]}},
    "develop": {"variant": "h", "path": [{"start": [1.2, 1.2], "end": [1.8, 1.5]}]},
}

#: metrics no command may check, each with the quantity its refusal names
_BAD_METRICS = {
    "singular": ([["x", "x"], ["x", "x"]], "metric is singular to tolerance"),
    "indefinite": ([["x", "0"], ["0", "-y"]], "metric is not positive definite (min eigenvalue"),
    "overflowing": (_HUGE_METRIC["entries"], "metric determinant is beyond the float range"),
}


def test_the_metric_jobs_are_every_command_that_takes_a_metric():
    assert set(_METRIC_JOBS) == {name for name, c in _COMMANDS.items() if c.min_dim}


@pytest.mark.parametrize("bad", sorted(_BAD_METRICS))
@pytest.mark.parametrize("command", sorted(_METRIC_JOBS))
def test_every_metric_command_refuses_a_bad_metric_at_its_point(tmp_path, capsys, command, bad):
    entries, quantity = _BAD_METRICS[bad]
    metric = {**_HUGE_METRIC, "entries": entries}
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"metric": metric, **_METRIC_JOBS[command]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be an internal error
        code, report, err = _run(capsys, command, "--config", str(config))
    assert code == 2 and report is None
    # g is checked as every scan checks it, first at the first sample point
    assert err.startswith(f"error: $.metric: {quantity}")
    assert err.endswith(" at point (1.05, 1.05)\n")


def test_a_domain_error_in_a_flatness_scan_names_its_point(tmp_path, capsys):
    # g passes its checks everywhere; its x-derivative divides by zero at x = 1.05
    metric = {**_HUGE_METRIC, "entries": [["1 + sqrt(x - 1.05)", "0"], ["0", "1"]]}
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"metric": metric, "variant": "h"}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be an internal error
        code, report, err = _run(capsys, "flatness", "--config", str(config))
    assert code == 2 and report is None
    # the first grid point, where the scan's in-turn replay meets the error
    assert err == "error: division by zero at point (1.05, 1.05)\n"


#: g's x-derivative divides by zero on the line x = 0, the grid's fourth
#: point at grid 3; the second metric is also indefinite from the later
#: point (0.9, 0.0) on, which a guard over the whole chunk would meet first
_DOMAIN_METRICS = [
    [["2 + sqrt(x^2)^3", "0"], ["0", "1"]],
    [["2 + sqrt(x^2)^3", "0"], ["0", "1.2 - 2*exp(-100*((x-0.9)^2 + y^2))"]],
]


@pytest.mark.parametrize("entries", _DOMAIN_METRICS)
@pytest.mark.parametrize("command", ["curvature", "flatness", "identity", "compat"])
def test_every_grid_check_names_the_first_domain_error_point_by_point(tmp_path, capsys, command, entries):
    metric = {"names": ["x", "y"], "box": [[-1, 1], [-1, 1]], "entries": entries}
    fields = {} if command == "curvature" else {"variant": "h"}
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"metric": metric, "grid": 3, **fields}))
    code, report, err = _run(capsys, command, "--config", str(config))
    assert code == 2 and report is None
    assert err == "error: division by zero at point (0.0, -0.9)\n"


def test_curvature_refuses_a_curvature_that_is_not_finite(tmp_path, capsys):
    # g and R pass every guard, but the products g_ki R^k_jij overflow
    metric = {
        "names": ["x", "y"], "box": [[0.5, 1], [0.5, 1]],
        "entries": [["1000", "300"], ["300", "100*(0.9 + 1e-3*(2 + sin(1e154*x)))"]],
    }
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"metric": metric, "grid": 6}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report, err = _run(capsys, "curvature", "--config", str(config))
    assert caught == []
    assert code == 2 and report is None
    assert err == "error: sectional curvature is not finite at point (0.525, 0.525)\n"


@pytest.mark.parametrize(
    "expected, outcome",
    [
        # |K - expected| passes the float range where K is about +1.6e296
        (-1.7976931348623157e308, "error: curvature residual is not finite at point (0.75, 0.525)\n"),
        (-1e308, 1.0000000000016376e308),
    ],
)
def test_curvature_refuses_a_residual_that_is_not_finite(tmp_path, capsys, expected, outcome):
    # curvatures about 1e296 of both signs, each finite
    metric = {
        "names": ["x", "y"], "box": [[0.5, 1], [0.5, 1]],
        "entries": [["1000", "300"], ["300", "100*(0.9 + 1e-3*(2 + sin(1e150*x)))"]],
    }
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"metric": metric, "grid": 3, "expected": expected}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report, err = _run(capsys, "curvature", "--config", str(config))
    assert caught == []
    if isinstance(outcome, str):
        assert (code, report, err) == (2, None, outcome)
    else:
        assert (code, report["max_residual"], err) == (1, outcome, "")


def test_develop_refuses_a_transport_that_is_not_finite(tmp_path, capsys):
    # one RK4 step per unit along segments that dive to y = 0.002, where
    # the half-plane's Christoffel symbols are about 500: the state overflows
    ends = [[0.5, 0.002], [0.5, 0.9]]
    path = [{"start": ends[k % 2], "end": ends[(k + 1) % 2]} for k in range(120)]
    metric = {"names": ["x", "y"], "box": [[0, 1], [1e-3, 1]], "entries": [["1/y^2", "0"], ["0", "1/y^2"]]}
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"metric": metric, "variant": "h", "steps_per_unit": 1, "path": path}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["develop", "--config", str(config)])
    out = capsys.readouterr()
    assert caught == []
    assert code == 2 and out.out == ""
    assert out.err == "error: transport is not finite by t = 1.0; take more steps per unit\n"


def test_develop_writes_trace_and_endpoint(tmp_path, capsys):
    config = tmp_path / "job.json"
    config.write_text(
        json.dumps(
            {
                "preset": "half_plane",
                "variant": "h",
                "path": [
                    {"start": [0.0, 1.0], "end": [0.5, 1.5]},
                    {"start": [0.5, 1.5], "end": [1.0, 2.5]},
                ],
            }
        )
    )
    out = tmp_path / "dev.csv"
    code, report, _ = _run(capsys, "develop", "--config", str(config), "--out", str(out))
    assert code == 0
    assert report["quadric_residual"] <= 1e-6
    # the half-plane point (1, 2.5) on the hyperboloid, frame axes first
    assert abs(report["end"][0] - 0.4) <= 1e-6
    assert abs(report["end"][1] - 1.25) <= 1e-6
    assert abs(report["end"][2] - 1.65) <= 1e-6
    with out.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["node", "phi0", "phi1", "phi2"]
    assert len(rows) == report["nodes"] + 1
    assert [float(v) for v in rows[1][1:]] == [0.0, 0.0, 1.0]
    assert out.read_bytes() == (RECORDED / "develop_half_plane_two_segments.csv").read_bytes()


def test_develop_rejects_broken_paths(tmp_path, capsys):
    config = tmp_path / "job.json"
    config.write_text(
        json.dumps(
            {
                "preset": "half_plane",
                "variant": "h",
                "path": [
                    {"start": [0.0, 1.0], "end": [0.5, 1.5]},
                    {"start": [0.6, 1.5], "end": [1.0, 2.5]},
                ],
            }
        )
    )
    code, _, err = _run(capsys, "develop", "--config", str(config))
    assert code == 2 and "$.path" in err and "join" in err


def test_zcr_kink_passes_and_nonsolution_fails(capsys):
    code, report, _ = _run(capsys, "zcr", "--grid", "9")
    assert code == 0
    assert report["pass"] is True
    assert report["u"] == "4 * atan(exp(x1 + x2))"
    assert report["max_zcr"] <= 1e-10
    code, report, _ = _run(capsys, "zcr", "--u", "x1 * x2", "--grid", "7")
    assert code == 1
    assert report["max_zcr"] > 0.1
    assert report["correlation"] is not None


def test_zcr_expression_errors_exit_2(capsys):
    code, _, err = _run(capsys, "zcr", "--u", "q * x1")
    assert code == 2 and "unknown identifier" in err


def test_numbers_beyond_the_float_range_are_refused_where_they_are_written(tmp_path, capsys):
    code, _, err = _run(capsys, "zcr", "--u", "x1 + 1e400", "--grid", "3")
    assert code == 2 and err.startswith("error: ") and "'1e400'" in err
    config = tmp_path / "job.json"
    metric = {"names": ["x", "y"], "box": [[0, 1], [0, 1]], "entries": [["1", "0"], ["0", "2e999"]]}
    config.write_text(json.dumps({"metric": metric, "variant": "h"}))
    code, _, err = _run(capsys, "flatness", "--config", str(config))
    assert code == 2 and err.startswith("error: $.metric.entries[1][1]: ") and "'2e999'" in err


def test_out_stores_the_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, report, _ = _run(
        capsys,
        "flatness", "--preset", "sphere2", "--variant", "s",
        "--grid", "5", "--out", str(out),
    )
    assert code == 0
    stored = json.loads(out.read_text())
    assert stored == report


_SMALL_JOBS = {
    "flatness": {"preset": "sphere2", "variant": "s", "grid": 3},
    "develop": {
        "preset": "sphere2",
        "variant": "s",
        "path": [{"start": [1.0, 1.0], "end": [1.1, 1.0]}],
        "steps_per_unit": 4,
    },
}


@pytest.mark.parametrize("command", sorted(_SMALL_JOBS))
def test_unwritable_out_path_exits_2_before_any_report(tmp_path, capsys, command):
    # a JSON report (flatness) and a CSV trace (develop): the path is
    # refused before either is printed
    config = tmp_path / "job.json"
    config.write_text(json.dumps(_SMALL_JOBS[command]))
    out = tmp_path / "missing" / "r.json"
    code = main([command, "--config", str(config), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot write --out file {str(out)!r}: No such file or directory\n"
    assert not out.parent.exists()


_ANY_FLAG = sorted({f"--{field}" for field in _FIELDS} | {"--config", "--out"})
_FLAG_TEXTS = [
    "2", "6", "0", " 7 ", "2_0", "\u0663", "1.5", "1e-3", "1e400", "nan", "", "h", "s", "x",
    "lc", "half_plane", "sphere3", "x1 + x2", "a b", "-1", "-0.5", "-x1", "--", "-h",
]
_OTHER_TOKENS = ["-h", "--help", "--", "--bogus", "--pre", "--gr", "--va", "--grid=6", "--variant=h", "-x"]
_TEXTS = st.sampled_from(_FLAG_TEXTS) | st.text(max_size=3)
#: per flag, values it takes
_GOOD_TEXTS = {
    f"--{field}": spec.choices or {
        int: ["2", "6", " 7 ", "2_0", "\u0663"],
        float: ["1.5", "0", "1e-3", "1e400", "nan"],
        str: ["half_plane", "x1 + x2", "a b", ""],
    }[spec.kind]
    for field, spec in _FIELDS.items()
}
_GOOD_TEXTS["--config"] = _GOOD_TEXTS["--out"] = ["job.json", "out dir/x", ""]
_OTHER_PARTS = (
    st.tuples(st.sampled_from(_ANY_FLAG), _TEXTS)  # perhaps another command's flag
    | st.sampled_from(_OTHER_TOKENS + _FLAG_TEXTS).map(lambda token: (token,))
)


def _command_lines(command: str):
    """``command``, then mostly ``--flag value`` pairs of its own flags."""
    own = ["--config", "--out"] + [
        action.option_strings[0] for action in _subcommand_flags().get(command, [])
    ]
    good = st.sampled_from(own).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(_GOOD_TEXTS[flag]))
    )
    other = st.tuples(st.sampled_from(own), _TEXTS) | _OTHER_PARTS
    parts = st.lists(st.one_of(*[good] * 6, other), max_size=5)
    return parts.map(lambda parts: [command, *itertools.chain.from_iterable(parts)])


_ARGV = st.sampled_from([*_COMMANDS, "flat", "nope", "-h", "--config"]).flatmap(_command_lines)


@settings(max_examples=300, deadline=None)
@given(argv=_ARGV)
@example(argv=[])
@example(argv=["zcr", "--u", "-x1"])
@example(argv=["compat", "--preset", "--"])
@example(argv=["curvature", "--expected", "-0.5"])
@example(argv=["flatness", "--preset", "sphere3", "--variant", "s", "--grid", "20"])
@example(argv=["zcr", "--u", f"{KINK_TEXT} + 0.01 * sin(x1)", "--grid", "61"])
@example(argv=["develop", "--config", "job.json", "--out", "", "--variant", "h"])
@example(argv=["curvature", "--expected", "1e400", "--tol", "nan", "--grid", " 7 "])
def test_the_table_reader_returns_what_argparse_returns(argv):
    plain = _plain_args(argv)
    if plain is None:  # argparse reads the line
        return
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            expected = _parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"the tables read {argv!r}, which argparse refuses: {err.getvalue()}")
    # repr tells -0.0 from 0.0, 2 from "2", and matches NaN with NaN
    assert {k: repr(v) for k, v in vars(plain).items()} == {
        k: repr(v) for k, v in vars(expected).items()
    }


def _no_parser():
    raise AssertionError("a plain command line built an argparse parser")


@pytest.mark.parametrize("name", sorted(JOBS))
def test_a_plain_command_line_builds_no_parser(monkeypatch, name):
    # every golden job is a plain line: flatness, curvature, compat, zcr,
    # identity, and transport and develop with --config
    monkeypatch.setattr(cli, "_parser", _no_parser)
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert run_job(name) == golden


def test_a_plain_line_with_a_field_expression_builds_no_parser(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_parser", _no_parser)
    code, report, _ = _run(capsys, "zcr", "--u", f"{KINK_TEXT} + 0.01 * sin(x1)", "--grid", "21")
    assert code == 1 and report["correlation"] > 0.999


@pytest.mark.parametrize("preset", ["hyperbolic3", "sphere3"])
def test_curvature_extremes_are_min_and_max_in_point_order(capsys, preset):
    metric = preset_metric(preset)
    # 729 points: a whole chunk and a partial one
    code, report, _ = _run(capsys, "curvature", "--preset", preset, "--grid", "9")
    assert code == 0 and report["points"] == 9**3
    points = np.array(list(metric.chart.grid(9)))
    values = metric.sectional_curvatures(points, [(0, 1), (0, 2), (1, 2)]).ravel().tolist()
    expected = get_preset(preset).expected_curvature
    want = [min(values), max(values), max(abs(v - expected) for v in values)]
    got = [report["min_curvature"], report["max_curvature"], report["max_residual"]]
    assert list(map(float.hex, got)) == list(map(float.hex, want))


def _curvature_table(edits: dict) -> list:
    """529 curvatures of the Poincare disk's grid at 23 (a chunk of 512, then
    17), below -1, with ``edits`` written in.  The disk's metric reads both
    coordinates, so the scan evaluates every grid point rather than a
    sub-grid."""
    table = (-1.0 - np.random.default_rng(3).random(23**2)).tolist()
    for index, value in edits.items():
        table[index] = value
    return table


@pytest.mark.parametrize(
    "table",
    [
        _curvature_table({0: -0.0, 300: 0.0}),  # max() starts from the first value
        _curvature_table({40: -9.0, 515: -9.0, 100: -0.0, 520: 0.0}),
        _curvature_table({7: -0.0, 8: 0.0}),
        _curvature_table({1: 0.0, 2: -0.0}),
        [-v for v in _curvature_table({10: -0.0, 520: 0.0})],  # min() keeps the first, 0.0
    ],
)
def test_curvature_extremes_keep_min_and_max_on_nan_and_signed_zeros(capsys, monkeypatch, table):
    rows = iter(table)

    def fake(self, points, planes):
        return np.array([next(rows) for _ in points]).reshape(-1, 1)

    monkeypatch.setattr(ChartMetric, "sectional_curvatures", fake)
    _, report, _ = _run(capsys, "curvature", "--preset", "poincare_disk", "--grid", "23")
    want = [min(table), max(table), max(abs(v + 1.0) for v in table)]
    got = [report["min_curvature"], report["max_curvature"], report["max_residual"]]
    assert list(map(float.hex, got)) == list(map(float.hex, want))


def test_bad_flag_values_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["flatness", "--preset", "half_plane", "--variant", "x"])
    assert info.value.code == 2


def _package_env() -> dict:
    """The environment with the imported package's source directory first on
    PYTHONPATH, so a ``python -m cartanflat.cli`` child runs this package
    whether or not the caller set PYTHONPATH."""
    src = str(Path(cartanflat.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_module_entry_point():
    proc = subprocess.run(
        [
            sys.executable, "-m", "cartanflat.cli",
            "flatness", "--preset", "poincare_disk", "--variant", "h", "--grid", "5",
        ],
        capture_output=True,
        text=True,
        env=_package_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


def test_a_reader_that_stops_early_leaves_the_exit_code_to_the_job(tmp_path):
    # as in `cartanflat presets | head -c 100`, but with the pipe's read end
    # closed before the report is written, every time
    out = tmp_path / "presets.json"
    for extra in ([], ["--out", str(out)]):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cartanflat.cli", "presets", *extra],
                stdout=write,
                stderr=subprocess.PIPE,
                timeout=120,
                env=_package_env(),
            )
        finally:
            os.close(write)
        assert proc.returncode == 0
        assert proc.stderr == b""
    assert json.loads(out.read_text(encoding="utf-8"))["command"] == "presets"


def test_a_closed_stderr_leaves_a_refused_job_exit_2():
    # the job is refused, and the error message meets a pipe nobody reads
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cartanflat.cli", "flatness", "--preset", "nosuch", "--variant", "h"],
            stdout=subprocess.PIPE,
            stderr=write,
            timeout=120,
            env=_package_env(),
        )
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stdout == b""
