"""CLI behavior: reports, exit codes, config validation."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cartanflat.cli import (
    _COMMANDS,
    _FIELDS,
    _MAX_STEPS_PER_UNIT,
    _MAX_TRIALS,
    _REQUIRED,
    _get_grid,
    _parser,
    _read,
    main,
)
from cartanflat.errors import ConfigError
from cartanflat.exprlang import MAX_DEPTH
from cartanflat.presets import PRESET_NAMES


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip().startswith("{") else None
    return code, report, out.err


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


def test_bad_flag_values_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["flatness", "--preset", "half_plane", "--variant", "x"])
    assert info.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [
            sys.executable, "-m", "cartanflat.cli",
            "flatness", "--preset", "poincare_disk", "--variant", "h", "--grid", "5",
        ],
        capture_output=True,
        text=True,
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
            )
        finally:
            os.close(write)
        assert proc.returncode == 0
        assert proc.stderr == b""
    assert json.loads(out.read_text(encoding="utf-8"))["command"] == "presets"
