"""Command-line verification jobs.

Every job reads its settings from an optional JSON config file plus
command-line overrides, prints a JSON report (sorted keys) to stdout,
and exits 0 when the checked tolerance holds, 1 when it does not, and
2 on bad configuration or bad geometry.  `transport` and `develop`
additionally write a per-node CSV trace when --out is given; for the
other commands --out stores the JSON report.

`_FIELDS` (each scalar field's type, flag help, choices and bounds) and
`_COMMANDS` (each subcommand's job, metric, structured fields and
defaults) are the single source of the flags, the config-key checks and
the defaults.  docs/config-schema.json documents the fields, and
tests/test_cli.py pins it to these two tables.  A plain command line (a
command, then ``--flag value`` pairs of its own flags with values that
convert and do not start with "-") is read straight from the tables;
argparse reads every other line, and prints the help and every refusal.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bundle import identity_residual, metric_compatibility_residual
from .errors import CartanflatError, ConfigError, ExpressionDomainError, ParseError
from .exprlang import parse
from .metricspace import Chart, ChartMetric, grid_scan, worst_point
from .presets import KINK_TEXT, PRESET_NAMES, catalog, get_preset
from .sasaki import flatness_scan
from .transport import (
    CLOSURE_TOL,
    CONNECTIONS,
    ChartCurve,
    circle_curve,
    closure_gap,
    develop,
    line_curve,
    transport_trace,
)
from .zcr import DEFAULT_BOX, DEFAULT_NAMES, equivalence_scan

__all__ = ["main"]


# ---------------------------------------------------------------------------
# the scalar fields; every failure names the JSON path of the offending field
# ---------------------------------------------------------------------------


class _Field(NamedTuple):
    kind: type  # str, int or float
    help: str | None  # flag help; None = config file only
    choices: tuple | None = None
    minimum: int | None = None
    maximum: int | None = None
    positive: bool = False


#: Largest number of points a grid scan may visit (grid ** dim).
_GRID_POINT_BUDGET = 1_000_000
#: Largest RK4 node density and random-section count a job may ask for.
_MAX_STEPS_PER_UNIT = 16_384
_MAX_TRIALS = 100

#: In the order their flags are listed.
_FIELDS = {
    "preset": _Field(str, "bundled metric name"),
    "u": _Field(str, "scalar field expression in x1, x2"),
    "grid": _Field(int, "scan resolution per axis", minimum=2),
    "tol": _Field(float, "pass/fail threshold", positive=True),
    "expected": _Field(float, "constant curvature to check against"),
    "variant": _Field(str, "bundle connection, flat iff curvature -1 (h) or +1 (s)", ("h", "s")),
    "seed": _Field(int, "seed for the random sections", minimum=0),
    "trials": _Field(int, "random sections per scan point", minimum=1, maximum=_MAX_TRIALS),
    "connection": _Field(str, "connection to transport with", CONNECTIONS),
    "steps_per_unit": _Field(int, None, minimum=1, maximum=_MAX_STEPS_PER_UNIT),
    # inside "curve"
    "kind": _Field(str, None, ("line", "circle")),
    "radius": _Field(float, None, positive=True),
}

#: Default of a field the job cannot run without.
_REQUIRED = object()


def _check_keys(cfg: dict, allowed, path: str = "$"):
    if not isinstance(cfg, dict):
        raise ConfigError(path, "must be a JSON object")
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown field")


def _finite(value, field: str) -> float:
    """A JSON number (int or float) as a finite float."""
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(field, "must be a finite number")
    return number


def _read(cfg: dict, name: str, default=None, path: str = "$"):
    """Field ``name`` of ``cfg`` checked against ``_FIELDS``, or ``default``
    when absent (an error when the default is ``_REQUIRED``)."""
    spec = _FIELDS[name]
    field = f"{path}.{name}"
    if name not in cfg:
        if default is _REQUIRED:
            options = f" ({' or '.join(map(repr, spec.choices))})" if spec.choices else ""
            raise ConfigError(field, f"is required{options}")
        return default
    value = cfg[name]
    if spec.kind is str:
        if not isinstance(value, str):
            raise ConfigError(field, "must be a string")
        if spec.choices is not None and value not in spec.choices:
            raise ConfigError(field, f"must be one of {', '.join(map(repr, spec.choices))}")
        return value
    if spec.kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(field, "must be an integer")
    elif not _is_number(value):
        raise ConfigError(field, "must be a number")
    else:
        value = _finite(value, field)
    if spec.positive and not value > 0:
        raise ConfigError(field, "must be positive")
    if spec.minimum is not None and value < spec.minimum:
        raise ConfigError(field, f"must be at least {spec.minimum}")
    if spec.maximum is not None and value > spec.maximum:
        raise ConfigError(field, f"must be at most {spec.maximum:,}")
    return value


def _get_grid(cfg: dict, default: int, dim: int) -> int:
    grid = _read(cfg, "grid", default)
    if grid**dim > _GRID_POINT_BUDGET:
        # the power itself is not printed: past 4,300 digits str() refuses it
        raise ConfigError(
            "$.grid", f"{grid}^{dim} points exceeds the budget of {_GRID_POINT_BUDGET:,} grid points"
        )
    return grid


def _is_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float))


def _check_point(value, dim: int, field: str) -> tuple:
    if not isinstance(value, list) or len(value) != dim or not all(map(_is_number, value)):
        raise ConfigError(field, f"must be a list of {dim} numbers")
    return tuple(_finite(v, f"{field}[{k}]") for k, v in enumerate(value))


def _check_box(value, field: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(field, "must be a non-empty list of [lo, hi] pairs")
    box = []
    for k, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_number, pair)):
            raise ConfigError(f"{field}[{k}]", "must be a [lo, hi] pair of numbers")
        lo, hi = (_finite(v, f"{field}[{k}]") for v in pair)
        if not lo < hi:
            raise ConfigError(f"{field}[{k}]", "needs lo < hi")
        box.append((lo, hi))
    return tuple(box)


def _build_metric(cfg: dict, min_dim: int) -> tuple[ChartMetric, dict]:
    """The metric named by the config plus a JSON-ready echo of the source;
    inline metrics need at least ``min_dim`` coordinates."""
    has_preset = "preset" in cfg
    has_metric = "metric" in cfg
    if has_preset == has_metric:
        raise ConfigError("$.preset", "exactly one of 'preset' or 'metric' is required")
    if has_preset:
        name = _read(cfg, "preset")
        if name not in PRESET_NAMES:
            raise ConfigError(
                "$.preset", f"unknown preset {name!r}; run 'cartanflat presets' for the list"
            )
        return get_preset(name).metric(), {"preset": name}
    spec = cfg["metric"]
    _check_keys(spec, {"names", "box", "entries"}, path="$.metric")
    names = spec.get("names")
    if (
        not isinstance(names, list)
        or len(names) < 1
        or any(not isinstance(n, str) for n in names)
    ):
        raise ConfigError("$.metric.names", "must be a list of coordinate names")
    if len(set(names)) != len(names):
        raise ConfigError("$.metric.names", "coordinate names must be distinct")
    if len(names) < min_dim:
        raise ConfigError("$.metric", f"needs at least {min_dim} coordinates for this check")
    box = _check_box(spec.get("box"), "$.metric.box")
    if len(box) != len(names):
        raise ConfigError("$.metric.box", "needs one [lo, hi] pair per coordinate")
    entries = spec.get("entries")
    n = len(names)
    if (
        not isinstance(entries, list)
        or len(entries) != n
        or any(
            not isinstance(row, list)
            or len(row) != n
            or any(not isinstance(e, str) for e in row)
        for row in entries)
    ):
        raise ConfigError("$.metric.entries", f"must be a {n}x{n} matrix of expression strings")
    rows = []
    for i, row in enumerate(entries):
        rows.append([])
        for j, text in enumerate(row):
            try:
                rows[i].append(parse(text, names))
            except ParseError as exc:
                raise ConfigError(f"$.metric.entries[{i}][{j}]", str(exc)) from exc
    try:
        metric = ChartMetric(Chart(tuple(names), box), rows)
    except CartanflatError as exc:
        raise ConfigError("$.metric", str(exc)) from exc
    except ValueError as exc:
        raise ConfigError("$.metric.entries", str(exc)) from exc
    return metric, {"metric": {"names": names, "box": [list(b) for b in box], "entries": entries}}


def _build_curve(spec, chart: Chart, steps_per_unit: int) -> tuple[ChartCurve, dict]:
    if spec is None:
        raise ConfigError("$.curve", "is required")
    _check_keys(spec, {"kind", "start", "end", "center", "radius"}, path="$.curve")
    kind = _read(spec, "kind", _REQUIRED, path="$.curve")
    try:
        if kind == "line":
            start = _check_point(spec.get("start"), chart.dim, "$.curve.start")
            end = _check_point(spec.get("end"), chart.dim, "$.curve.end")
            curve = line_curve(chart, start, end, steps_per_unit)
            if closure_gap(curve) <= CLOSURE_TOL:  # a loop of nothing: no holonomy to check
                raise ConfigError("$.curve.end", f"must be more than {CLOSURE_TOL:g} from start")
            echo = {"kind": "line", "start": list(start), "end": list(end)}
        else:
            center = _check_point(spec.get("center"), chart.dim, "$.curve.center")
            radius = _read(spec, "radius", path="$.curve")
            if radius is None:
                raise ConfigError("$.curve.radius", "is required for circles")
            curve = circle_curve(chart, center, radius, steps_per_unit)
            echo = {"kind": "circle", "center": list(center), "radius": radius}
    except CartanflatError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("$.curve", str(exc)) from exc
    return curve, echo


def _build_path(spec, chart: Chart, steps_per_unit: int) -> tuple[tuple, list]:
    if not isinstance(spec, list) or not spec:
        raise ConfigError("$.path", "must be a non-empty list of {start, end} segments")
    segments = []
    echo = []
    for k, seg in enumerate(spec):
        _check_keys(seg, {"start", "end"}, path=f"$.path[{k}]")
        start = _check_point(seg.get("start"), chart.dim, f"$.path[{k}].start")
        end = _check_point(seg.get("end"), chart.dim, f"$.path[{k}].end")
        try:
            segment = line_curve(chart, start, end, steps_per_unit)
        except CartanflatError as exc:
            raise ConfigError(f"$.path[{k}]", str(exc)) from exc
        if closure_gap(segment) <= CLOSURE_TOL:  # nothing to develop along
            raise ConfigError(f"$.path[{k}].end", f"must be more than {CLOSURE_TOL:g} from start")
        segments.append(segment)
        echo.append({"start": list(start), "end": list(end)})
    return tuple(segments), echo


# ---------------------------------------------------------------------------
# the jobs; each takes the settings `_settings` read and returns
# (payload, passed, csv_rows), the rows an iterator read only for --out
# ---------------------------------------------------------------------------


def _job_curvature(s: dict):
    metric, grid, tol, expected = s["metric"], s["grid"], s["tol"], s["expected"]
    if expected is None and "preset" in s["source"]:
        expected = get_preset(s["source"]["preset"]).expected_curvature
    planes = [(i, j) for i in range(metric.dim) for j in range(i + 1, metric.dim)]
    curvatures = functools.partial(metric.sectional_curvatures, planes=planes)
    points = 0
    low = high = worst = None
    for chunk, values in grid_scan(metric.chart, grid, curvatures, (metric._g, metric._riemann)):
        values = values.ravel()
        if low is None:  # min() and max() start from the first value
            low = high = values[0]
        # then, in point order, a chunk's first extreme replaces them only
        # when strictly beyond, so a zero keeps its sign
        lowest, highest = values[values.argmin()], values[values.argmax()]
        low = lowest if lowest < low else low
        high = highest if highest > high else high
        if expected is not None:
            with np.errstate(over="ignore"):  # a residual beyond the float range is refused
                residuals = np.abs(values - expected)
            k = residuals.argmax()  # the first point at the chunk's worst
            worst = residuals[k] if worst is None or residuals[k] > worst else worst
            if not math.isfinite(worst):
                point = tuple(chunk[k // len(planes)].tolist())
                raise ExpressionDomainError("curvature residual is not finite", point=point)
        points += len(chunk)
    payload = {
        **s["source"],
        "grid": grid,
        "points": points,
        "planes": len(planes),
        "min_curvature": float(low),
        "max_curvature": float(high),
        "expected": expected,
        "tol": tol,
    }
    if expected is None:
        payload["max_residual"] = None
        return payload, None, None
    payload["max_residual"] = float(worst)
    return payload, payload["max_residual"] <= tol, None


def _job_flatness(s: dict):
    report = flatness_scan(s["metric"], s["variant"], resolution=s["grid"])
    payload = {**s["source"], **dataclasses.asdict(report), "tol": s["tol"]}
    return payload, report.max_residual <= s["tol"], None


def _job_section_scan(residual, s: dict):
    """The worst point (``worst_point``) of ``residual(variant, metric,
    points, trials, seed)``, one value per point of a stack, over the grid,
    g checked positive definite at each chunk's points first."""
    metric, variant, trials, seed = s["metric"], s["variant"], s["trials"], s["seed"]

    def residuals(points: np.ndarray) -> np.ndarray:
        metric.definite_metric_at(points)
        return residual(variant, metric, points, trials, seed)

    worst, argmax, points = worst_point(grid_scan(metric.chart, s["grid"], residuals))
    payload = {
        **s["source"],
        "variant": variant,
        "grid": s["grid"],
        "points": points,
        "trials": trials,
        "seed": seed,
        "max_residual": worst,
        "argmax_point": argmax,
        "tol": s["tol"],
    }
    return payload, worst <= s["tol"], None


def _job_transport(s: dict):
    metric, connection, tol = s["metric"], s["connection"], s["tol"]
    curve, curve_echo = _build_curve(s.get("curve"), metric.chart, s["steps_per_unit"])
    times, matrices = transport_trace(connection, metric, curve)
    closed = closure_gap(curve) <= CLOSURE_TOL
    identity_gap = (
        float(np.max(np.abs(matrices[-1] - np.eye(matrices.shape[1])))) if closed else None
    )
    payload = {
        **s["source"],
        "connection": connection,
        "curve": curve_echo,
        "steps": int(curve.steps),
        "size": int(matrices.shape[1]),
        "closed": closed,
        "identity_gap": identity_gap,
        "final_matrix": [[float(v) for v in row] for row in matrices[-1]],
        "tol": tol,
    }
    size = matrices.shape[1]
    header = ["t"] + [f"m{a}{b}" for a in range(size) for b in range(size)]
    rows = itertools.chain([header], (
        [f"{t:.12g}"] + [f"{v:.17g}" for v in matrix.ravel()]
        for t, matrix in zip(times, matrices)
    ))
    passed = None if identity_gap is None else identity_gap <= tol
    return payload, passed, rows


def _job_develop(s: dict):
    metric, variant, tol = s["metric"], s["variant"], s["tol"]
    segments, path_echo = _build_path(s.get("path"), metric.chart, s["steps_per_unit"])
    try:
        developed = develop(variant, metric, segments)
    except ValueError as exc:
        raise ConfigError("$.path", str(exc)) from exc
    residual = developed.quadric_residual
    payload = {
        **s["source"],
        "variant": variant,
        "path": path_echo,
        "nodes": int(developed.points.shape[0]),
        "end": [float(v) for v in developed.end],
        "quadric_residual": float(residual),
        "tol": tol,
    }
    width = developed.points.shape[1]
    header = ["node"] + [f"phi{a}" for a in range(width)]
    rows = itertools.chain([header], (
        [str(k)] + [f"{v:.17g}" for v in row] for k, row in enumerate(developed.points)
    ))
    return payload, residual <= tol, rows


def _job_zcr(s: dict):
    box = _check_box(s["box"], "$.box") if "box" in s else DEFAULT_BOX
    if len(box) != 2:
        raise ConfigError("$.box", "the sine-Gordon chart is two-dimensional")
    chart = Chart(DEFAULT_NAMES, box)
    report = dataclasses.asdict(equivalence_scan(s["u"], chart, resolution=s["grid"]))
    payload = {"u": s["u"], "box": [list(b) for b in box], **report, "tol": s["tol"]}
    return payload, report["max_zcr"] <= s["tol"], None


def _job_presets(s: dict):
    return {"presets": catalog()}, None, None


# ---------------------------------------------------------------------------
# the command table and its wiring
# ---------------------------------------------------------------------------


class _Command(NamedTuple):
    job: Callable
    summary: str
    min_dim: int  # smallest inline metric dimension; 0 = takes no metric
    structured: tuple  # fields the job reads itself
    scalars: dict  # field -> default (or _REQUIRED), in the order they are read

    @property
    def fields(self) -> set:
        """Every top-level config field the command accepts."""
        return {*(("preset", "metric") if self.min_dim else ()), *self.structured, *self.scalars}


_COMMANDS = {
    "curvature": _Command(
        _job_curvature, "sectional curvature scan", 2, (),
        {"grid": 12, "tol": 1e-6, "expected": None},
    ),
    "flatness": _Command(
        _job_flatness, "flatness residual scan", 2, (),
        {"variant": _REQUIRED, "grid": 20, "tol": 1e-6},
    ),
    # identity has nothing to check below two dimensions; compat does
    "identity": _Command(
        functools.partial(_job_section_scan, lambda *args: identity_residual(*args).worst),
        "identity residual scan", 2, (),
        {"variant": _REQUIRED, "grid": 4, "trials": 5, "seed": 0, "tol": 1e-4},
    ),
    "compat": _Command(
        functools.partial(_job_section_scan, metric_compatibility_residual),
        "compat residual scan", 1, (),
        {"variant": _REQUIRED, "grid": 6, "trials": 10, "seed": 0, "tol": 1e-8},
    ),
    "transport": _Command(
        _job_transport, "parallel transport along a curve", 1, ("curve",),
        {"connection": "lc", "steps_per_unit": 256, "tol": 1e-6},
    ),
    "develop": _Command(
        _job_develop, "develop a path into the model quadric", 1, ("path",),
        {"variant": _REQUIRED, "steps_per_unit": 256, "tol": 1e-6},
    ),
    "zcr": _Command(
        _job_zcr, "sine-Gordon zero-curvature scan", 0, ("box",),
        {"u": KINK_TEXT, "grid": 21, "tol": 1e-8},
    ),
    "presets": _Command(_job_presets, "list bundled metrics", 0, (), {}),
}


def _settings(cfg: dict, command: _Command) -> dict:
    """Check the config's keys, build the metric, then read the scalar
    fields in order (the grid within its point budget); the structured
    fields present are passed through for the job to read."""
    _check_keys(cfg, command.fields)
    settings = {name: cfg[name] for name in command.structured if name in cfg}
    dim = 2  # the sine-Gordon chart
    if command.min_dim:
        settings["metric"], settings["source"] = _build_metric(cfg, command.min_dim)
        dim = settings["metric"].dim
    for name, default in command.scalars.items():
        if name == "grid":
            settings[name] = _get_grid(cfg, default, dim)
        else:
            settings[name] = _read(cfg, name, default)
    return settings


#: The flags every subcommand takes besides its fields' flags, with their help.
_FILE_FLAGS = {"config": "JSON config file", "out": "write the report (or CSV trace) here"}


def _flag_fields(command: _Command) -> list[str]:
    """The fields a subcommand takes as flags, in ``_FIELDS`` order."""
    fields = command.fields
    return [field for field, spec in _FIELDS.items() if field in fields and spec.help is not None]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartanflat",
        description="flat-connection checks for constant-curvature metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.summary)
        for flag, text in _FILE_FLAGS.items():
            p.add_argument(f"--{flag}", help=text)
        for field in _flag_fields(command):
            spec = _FIELDS[field]
            p.add_argument(f"--{field}", type=spec.kind, choices=spec.choices, help=spec.help)
    return parser


def _plain_args(argv: list) -> argparse.Namespace | None:
    """The namespace ``_parser().parse_args(argv)`` returns for a plain
    command line, read from the tables without building a parser; None for
    any other line.

    A plain line is a command, then ``--flag value`` pairs of that command's
    own flags, each value not starting with "-", converting by its field's
    kind and among its choices.  argparse reads every other line: ``-h``,
    abbreviations, ``--flag=value``, values starting with "-" and each line
    it refuses, so the messages and exit codes stay its own."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    fields = _flag_fields(_COMMANDS[argv[0]])
    args = dict.fromkeys([*_FILE_FLAGS, *fields])
    for flag, text in zip(argv[1::2], argv[2::2]):
        name = flag[2:]
        if not flag.startswith("--") or name not in args or text.startswith("-"):
            return None
        if name in fields:
            spec = _FIELDS[name]
            try:
                value = spec.kind(text)
            except ValueError:
                return None
            if spec.choices is not None and value not in spec.choices:
                return None
            args[name] = value
        else:
            args[name] = text
    return argparse.Namespace(command=argv[0], **args)


def _load_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                cfg = json.load(handle)
        except OSError as exc:
            raise ConfigError("$", f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError("$", f"config file is not valid JSON: {exc}") from exc
        except ValueError as exc:  # e.g. an integer of more than 4,300 digits
            raise ConfigError("$", f"cannot read config file: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("$", "config file must hold a JSON object")
    for field in _FIELDS:
        value = getattr(args, field, None)
        if value is not None:
            cfg[field] = value
    return cfg


def main(argv=None) -> int:
    """Exit 0 when the check passes, 1 when it fails, 2 on anything else."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        args = _parser().parse_args(argv)
    try:
        return _run(args)
    except CartanflatError as exc:
        _complain(f"error: {exc}")
    except Exception as exc:  # noqa: BLE001 - a fault here is not a failed check
        message = " ".join(str(exc).split())
        _complain(f"internal error: {type(exc).__name__}: {message}")
    return 2


def _complain(message: str):
    """Print ``message`` to stderr; a stderr nobody reads leaves the exit code
    as it is."""
    try:
        print(message, file=sys.stderr, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stderr.fileno())
        os.close(devnull)


def _run(args) -> int:
    started = time.perf_counter()
    command = _COMMANDS[args.command]
    payload, passed, csv_rows = command.job(_settings(_load_config(args), command))
    report = {
        "command": args.command,
        "version": f"cartanflat {__version__}",
        "pass": passed,
        "wall_time_s": round(time.perf_counter() - started, 6),
        **payload,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    # open --out before printing, so a path that cannot be written prints
    # no report whose exit code says it was not produced
    try:
        out = open(args.out, "w", encoding="utf-8", newline="") if args.out else None
    except OSError as exc:
        reason = exc.strerror or exc
        raise CartanflatError(f"cannot write --out file {args.out!r}: {reason}") from exc
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader stopped early (say, `| head`): what is left of stdout,
        # the flush at exit included, goes to devnull; the job itself ran
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if out is not None:
        with out:
            if csv_rows is not None:
                csv.writer(out).writerows(csv_rows)
            else:
                out.write(text + "\n")
    return 1 if passed is False else 0


if __name__ == "__main__":
    sys.exit(main())
