"""Command-line verification jobs.

Every job reads its settings from an optional JSON config file plus
command-line overrides, prints a JSON report (sorted keys) to stdout,
and exits 0 when the checked tolerance holds, 1 when it does not, and
2 on bad configuration or bad geometry.  `transport` and `develop`
additionally write a per-node CSV trace when --out is given; for the
other commands --out stores the JSON report.

The config file fields are documented in docs/config-schema.json; the
short version is that a metric comes either from `"preset": "<name>"`
or from an inline `"metric": {"names", "box", "entries"}` object, and
everything else has a sensible default.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .bundle import identity_residual, metric_compatibility_residual
from .errors import CartanflatError, ConfigError
from .metricspace import Chart, ChartMetric, grid_scan
from .presets import KINK_TEXT, PRESET_NAMES, catalog, get_preset
from .sasaki import flatness_scan
from .transport import (
    CONNECTIONS,
    ChartCurve,
    circle_curve,
    develop,
    line_curve,
    transport_trace,
)
from .zcr import equivalence_scan

__all__ = ["main"]


# ---------------------------------------------------------------------------
# config checking; every failure names the JSON path of the offending field
# ---------------------------------------------------------------------------


def _check_keys(cfg: dict, allowed: set, path: str = "$"):
    if not isinstance(cfg, dict):
        raise ConfigError(path, "must be a JSON object")
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown field")


def _get_string(cfg: dict, name: str, default=None, choices=None, path: str = "$"):
    if name not in cfg:
        return default
    value = cfg[name]
    field = f"{path}.{name}"
    if not isinstance(value, str):
        raise ConfigError(field, "must be a string")
    if choices is not None and value not in choices:
        raise ConfigError(field, f"must be one of {', '.join(repr(c) for c in choices)}")
    return value


def _get_int(cfg: dict, name: str, default=None, minimum=0, path: str = "$"):
    if name not in cfg:
        return default
    value = cfg[name]
    field = f"{path}.{name}"
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, "must be an integer")
    if value < minimum:
        raise ConfigError(field, f"must be at least {minimum}")
    return value


def _get_number(cfg: dict, name: str, default=None, positive=False, path: str = "$"):
    if name not in cfg:
        return default
    value = cfg[name]
    field = f"{path}.{name}"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, "must be a number")
    if positive and not value > 0:
        raise ConfigError(field, "must be positive")
    return float(value)


#: Largest number of points a grid scan may visit (grid ** dim).
_GRID_POINT_BUDGET = 1_000_000


def _get_grid(cfg: dict, default: int, dim: int) -> int:
    grid = _get_int(cfg, "grid", default=default, minimum=2)
    if grid**dim > _GRID_POINT_BUDGET:
        raise ConfigError(
            "$.grid",
            f"{grid}^{dim} = {grid**dim} points exceeds the budget of "
            f"{_GRID_POINT_BUDGET:,} grid points",
        )
    return grid


def _check_point(value, dim: int, field: str) -> tuple:
    if (
        not isinstance(value, list)
        or len(value) != dim
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        raise ConfigError(field, f"must be a list of {dim} numbers")
    return tuple(float(v) for v in value)


def _check_box(value, field: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(field, "must be a non-empty list of [lo, hi] pairs")
    box = []
    for k, pair in enumerate(value):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in pair)
        ):
            raise ConfigError(f"{field}[{k}]", "must be a [lo, hi] pair of numbers")
        lo, hi = float(pair[0]), float(pair[1])
        if not lo < hi:
            raise ConfigError(f"{field}[{k}]", "needs lo < hi")
        box.append((lo, hi))
    return tuple(box)


def _build_metric(cfg: dict, min_dim: int = 1) -> tuple[ChartMetric, dict]:
    """The metric named by the config plus a JSON-ready echo of the source;
    inline metrics need at least ``min_dim`` coordinates."""
    has_preset = "preset" in cfg
    has_metric = "metric" in cfg
    if has_preset == has_metric:
        raise ConfigError("$.preset", "exactly one of 'preset' or 'metric' is required")
    if has_preset:
        name = _get_string(cfg, "preset")
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
    try:
        metric = ChartMetric(Chart(tuple(names), box), entries)
    except CartanflatError as exc:
        raise ConfigError("$.metric", str(exc)) from exc
    except ValueError as exc:
        raise ConfigError("$.metric.entries", str(exc)) from exc
    return metric, {"metric": {"names": names, "box": [list(b) for b in box], "entries": entries}}


def _build_curve(cfg: dict, chart: Chart, steps_per_unit: int) -> tuple[ChartCurve, dict]:
    spec = cfg.get("curve")
    if spec is None:
        raise ConfigError("$.curve", "is required")
    _check_keys(spec, {"kind", "start", "end", "center", "radius"}, path="$.curve")
    kind = _get_string(spec, "kind", choices=("line", "circle"), path="$.curve")
    if kind is None:
        raise ConfigError("$.curve.kind", "is required ('line' or 'circle')")
    try:
        if kind == "line":
            start = _check_point(spec.get("start"), chart.dim, "$.curve.start")
            end = _check_point(spec.get("end"), chart.dim, "$.curve.end")
            curve = line_curve(chart, start, end, steps_per_unit)
            echo = {"kind": "line", "start": list(start), "end": list(end)}
        else:
            center = _check_point(spec.get("center"), chart.dim, "$.curve.center")
            radius = _get_number(spec, "radius", positive=True, path="$.curve")
            if radius is None:
                raise ConfigError("$.curve.radius", "is required for circles")
            curve = circle_curve(chart, center, radius, steps_per_unit)
            echo = {"kind": "circle", "center": list(center), "radius": radius}
    except CartanflatError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("$.curve", str(exc)) from exc
    return curve, echo


def _build_path(cfg: dict, chart: Chart, steps_per_unit: int) -> tuple[tuple, list]:
    spec = cfg.get("path")
    if not isinstance(spec, list) or not spec:
        raise ConfigError("$.path", "must be a non-empty list of {start, end} segments")
    segments = []
    echo = []
    for k, seg in enumerate(spec):
        _check_keys(seg, {"start", "end"}, path=f"$.path[{k}]")
        start = _check_point(seg.get("start"), chart.dim, f"$.path[{k}].start")
        end = _check_point(seg.get("end"), chart.dim, f"$.path[{k}].end")
        try:
            segments.append(line_curve(chart, start, end, steps_per_unit))
        except CartanflatError as exc:
            raise ConfigError(f"$.path[{k}]", str(exc)) from exc
        echo.append({"start": list(start), "end": list(end)})
    return tuple(segments), echo


# ---------------------------------------------------------------------------
# the jobs; each returns (payload, passed, csv_rows)
# ---------------------------------------------------------------------------

_METRIC_KEYS = {"preset", "metric"}


def _job_curvature(cfg: dict):
    _check_keys(cfg, _METRIC_KEYS | {"grid", "tol", "expected"})
    metric, source = _build_metric(cfg, min_dim=2)
    grid = _get_grid(cfg, 12, metric.dim)
    tol = _get_number(cfg, "tol", default=1e-6, positive=True)
    expected = _get_number(cfg, "expected")
    if expected is None and "preset" in source:
        expected = get_preset(source["preset"]).expected_curvature
    planes = [(i, j) for i in range(metric.dim) for j in range(i + 1, metric.dim)]
    curvatures = functools.partial(metric.sectional_curvatures, planes=planes)
    points = 0
    low = high = worst = None
    for chunk, values in grid_scan(metric.chart, grid, curvatures):
        # min() and max() of every value, compared as they would, in point order
        for value in values.ravel().tolist():
            if low is None or value < low:
                low = value
            if high is None or value > high:
                high = value
            if expected is not None and (worst is None or abs(value - expected) > worst):
                worst = abs(value - expected)
        points += len(chunk)
    payload = {
        **source,
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


def _job_flatness(cfg: dict):
    _check_keys(cfg, _METRIC_KEYS | {"variant", "grid", "tol"})
    metric, source = _build_metric(cfg, min_dim=2)
    variant = _get_string(cfg, "variant", choices=("h", "s"))
    if variant is None:
        raise ConfigError("$.variant", "is required ('h' or 's')")
    grid = _get_grid(cfg, 20, metric.dim)
    tol = _get_number(cfg, "tol", default=1e-6, positive=True)
    report = flatness_scan(metric, variant, resolution=grid)
    payload = {**source, **report.as_dict(), "tol": tol}
    return payload, report.max_residual <= tol, None


def _job_section_scan(cfg: dict, residual, grid: int, trials: int, tol: float, min_dim: int):
    """The worst of residual(variant, metric, point, trials=, seed=) over the
    grid, g checked positive definite at each chunk's points first."""
    _check_keys(cfg, _METRIC_KEYS | {"variant", "grid", "trials", "seed", "tol"})
    metric, source = _build_metric(cfg, min_dim=min_dim)
    variant = _get_string(cfg, "variant", choices=("h", "s"))
    if variant is None:
        raise ConfigError("$.variant", "is required ('h' or 's')")
    grid = _get_grid(cfg, grid, metric.dim)
    trials = _get_int(cfg, "trials", default=trials, minimum=1)
    seed = _get_int(cfg, "seed", default=0)
    tol = _get_number(cfg, "tol", default=tol, positive=True)
    worst = -1.0
    argmax = None
    points = 0
    for chunk, _ in grid_scan(metric.chart, grid, metric.definite_metric_at):
        for point in map(tuple, chunk.tolist()):
            value = residual(variant, metric, point, trials=trials, seed=seed)
            if value > worst:
                worst, argmax = value, point
        points += len(chunk)
    payload = {
        **source,
        "variant": variant,
        "grid": grid,
        "points": points,
        "trials": trials,
        "seed": seed,
        "max_residual": worst,
        "argmax_point": list(argmax),
        "tol": tol,
    }
    return payload, worst <= tol, None


def _identity_worst(variant, metric, point, trials, seed) -> float:
    return identity_residual(variant, metric, point, trials=trials, seed=seed).worst


def _job_transport(cfg: dict):
    _check_keys(cfg, _METRIC_KEYS | {"connection", "curve", "steps_per_unit", "tol"})
    metric, source = _build_metric(cfg)
    connection = _get_string(cfg, "connection", default="lc", choices=CONNECTIONS)
    steps_per_unit = _get_int(cfg, "steps_per_unit", default=256, minimum=1)
    tol = _get_number(cfg, "tol", default=1e-6, positive=True)
    curve, curve_echo = _build_curve(cfg, metric.chart, steps_per_unit)
    times, matrices = transport_trace(connection, metric, curve)
    start = np.array(curve.point_at(curve.t0))
    end = np.array(curve.point_at(curve.t1))
    closed = bool(np.max(np.abs(end - start)) <= 1e-12)
    identity_gap = (
        float(np.max(np.abs(matrices[-1] - np.eye(matrices.shape[1])))) if closed else None
    )
    payload = {
        **source,
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
    rows = [header] + [
        [f"{t:.12g}"] + [f"{v:.17g}" for v in matrix.ravel()]
        for t, matrix in zip(times, matrices)
    ]
    passed = None if identity_gap is None else identity_gap <= tol
    return payload, passed, rows


def _job_develop(cfg: dict):
    _check_keys(cfg, _METRIC_KEYS | {"variant", "path", "steps_per_unit", "tol"})
    metric, source = _build_metric(cfg)
    variant = _get_string(cfg, "variant", choices=("h", "s"))
    if variant is None:
        raise ConfigError("$.variant", "is required ('h' or 's')")
    steps_per_unit = _get_int(cfg, "steps_per_unit", default=256, minimum=1)
    tol = _get_number(cfg, "tol", default=1e-6, positive=True)
    segments, path_echo = _build_path(cfg, metric.chart, steps_per_unit)
    try:
        developed = develop(variant, metric, segments)
    except ValueError as exc:
        raise ConfigError("$.path", str(exc)) from exc
    residual = developed.quadric_residual
    payload = {
        **source,
        "variant": variant,
        "path": path_echo,
        "nodes": int(developed.points.shape[0]),
        "end": [float(v) for v in developed.end],
        "quadric_residual": float(residual),
        "tol": tol,
    }
    width = developed.points.shape[1]
    header = ["node"] + [f"phi{a}" for a in range(width)]
    rows = [header] + [
        [str(k)] + [f"{v:.17g}" for v in row] for k, row in enumerate(developed.points)
    ]
    return payload, residual <= tol, rows


def _job_zcr(cfg: dict):
    _check_keys(cfg, {"u", "box", "grid", "tol"})
    u_text = _get_string(cfg, "u", default=KINK_TEXT)
    box = _check_box(cfg.get("box"), "$.box") if "box" in cfg else ((-2.0, 2.0), (-2.0, 2.0))
    if len(box) != 2:
        raise ConfigError("$.box", "the sine-Gordon chart is two-dimensional")
    grid = _get_grid(cfg, 21, 2)
    tol = _get_number(cfg, "tol", default=1e-8, positive=True)
    chart = Chart(("x1", "x2"), box)
    report = equivalence_scan(u_text, chart, resolution=grid)
    payload = {"u": u_text, "box": [list(b) for b in box], **report.as_dict(), "tol": tol}
    return payload, report.max_zcr <= tol, None


def _job_presets(cfg: dict):
    _check_keys(cfg, set())
    return {"presets": catalog()}, None, None


_JOBS = {
    "curvature": _job_curvature,
    "flatness": _job_flatness,
    # identity has nothing to check below two dimensions; compat does
    "identity": functools.partial(
        _job_section_scan, residual=_identity_worst, grid=4, trials=5, tol=1e-4, min_dim=2
    ),
    "compat": functools.partial(
        _job_section_scan,
        residual=metric_compatibility_residual,
        grid=6,
        trials=10,
        tol=1e-8,
        min_dim=1,
    ),
    "transport": _job_transport,
    "develop": _job_develop,
    "zcr": _job_zcr,
    "presets": _job_presets,
}


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartanflat",
        description="flat-connection checks for constant-curvature metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, metric=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="write the report (or CSV trace) here")
        if metric:
            p.add_argument("--preset", help="bundled metric name")
            p.add_argument("--grid", type=int, help="scan resolution per axis")
            p.add_argument("--tol", type=float, help="pass/fail threshold")

    p = sub.add_parser("curvature", help="sectional curvature scan")
    common(p)
    p.add_argument("--expected", type=float, help="constant curvature to check against")

    for name, needs_seed in (("flatness", False), ("identity", True), ("compat", True)):
        p = sub.add_parser(name, help=f"{name} residual scan")
        common(p)
        p.add_argument("--variant", choices=("h", "s"))
        if needs_seed:
            p.add_argument("--seed", type=int)
            p.add_argument("--trials", type=int)

    p = sub.add_parser("transport", help="parallel transport along a curve")
    common(p)
    p.add_argument("--connection", choices=CONNECTIONS)

    p = sub.add_parser("develop", help="develop a path into the model quadric")
    common(p)
    p.add_argument("--variant", choices=("h", "s"))

    p = sub.add_parser("zcr", help="sine-Gordon zero-curvature scan")
    common(p, metric=False)
    p.add_argument("--u", help="scalar field expression in x1, x2")
    p.add_argument("--grid", type=int, help="scan resolution per axis")
    p.add_argument("--tol", type=float, help="pass/fail threshold")

    p = sub.add_parser("presets", help="list bundled metrics")
    common(p, metric=False)
    return parser


_FLAG_FIELDS = (
    "preset",
    "variant",
    "connection",
    "grid",
    "tol",
    "seed",
    "trials",
    "expected",
    "u",
)


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
        if not isinstance(cfg, dict):
            raise ConfigError("$", "config file must hold a JSON object")
    for field in _FLAG_FIELDS:
        value = getattr(args, field, None)
        if value is not None:
            cfg[field] = value
    return cfg


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = _load_config(args)
        payload, passed, csv_rows = _JOBS[args.command](cfg)
    except CartanflatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "version": f"cartanflat {__version__}",
        "pass": passed,
        "wall_time_s": round(time.perf_counter() - started, 6),
        **payload,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            if csv_rows is not None:
                csv.writer(handle).writerows(csv_rows)
            else:
                handle.write(text + "\n")
    return 1 if passed is False else 0


if __name__ == "__main__":
    sys.exit(main())
