"""Built-in chart/metric presets and the seeded random-metric factory.

Preset domains bake in margins that keep the singular loci (sin x1 = 0 on the
polar charts, x2 = 0 on the half-plane, the disk boundary) outside every
sampled grid.  Coordinates are named x1..xn so the same strings work in JSON
configs.  Every call that returns a metric builds a new one; nothing here is
cached, so a metric and all it derives are freed once the caller drops it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .errors import ConfigError
from .metricspace import Chart, ChartMetric

__all__ = [
    "Preset",
    "PRESET_NAMES",
    "KINK_TEXT",
    "get_preset",
    "preset_metric",
    "catalog",
    "random_metric",
]


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    chart: Chart
    metric_text: tuple[tuple[str, ...], ...]
    expected_curvature: float | None = None
    params: dict = field(default_factory=dict)

    def metric(self) -> ChartMetric:
        return ChartMetric(self.chart, self.metric_text)


def _box2(lo1, hi1, lo2, hi2) -> tuple:
    return ((lo1, hi1), (lo2, hi2))


_POLAR_CAP = 0.15  # keeps sin(x1) bounded away from 0 on the polar charts


def _euclidean(n: int) -> Preset:
    names = tuple(f"x{i+1}" for i in range(n))
    rows = tuple(tuple("1" if i == j else "0" for j in range(n)) for i in range(n))
    return Preset(
        name=f"euclidean{n}",
        description=f"flat R^{n} in Cartesian coordinates",
        chart=Chart(names, tuple((-1.0, 1.0) for _ in range(n))),
        metric_text=rows,
        expected_curvature=0.0,
    )


def _sphere2() -> Preset:
    return Preset(
        name="sphere2",
        description="unit 2-sphere, polar chart (x1 = polar angle)",
        chart=Chart(("x1", "x2"), _box2(_POLAR_CAP, math.pi - _POLAR_CAP, 0.0, 2.0 * math.pi)),
        metric_text=(("1", "0"), ("0", "sin(x1)^2")),
        expected_curvature=1.0,
    )


def _sphere3() -> Preset:
    return Preset(
        name="sphere3",
        description="unit 3-sphere, polar chart",
        chart=Chart(
            ("x1", "x2", "x3"),
            (
                (_POLAR_CAP, math.pi - _POLAR_CAP),
                (_POLAR_CAP, math.pi - _POLAR_CAP),
                (0.0, 2.0 * math.pi),
            ),
        ),
        metric_text=(
            ("1", "0", "0"),
            ("0", "sin(x1)^2", "0"),
            ("0", "0", "sin(x1)^2 * sin(x2)^2"),
        ),
        expected_curvature=1.0,
    )


def _half_plane() -> Preset:
    return Preset(
        name="half_plane",
        description="hyperbolic upper half-plane (x2 > 0)",
        chart=Chart(("x1", "x2"), _box2(-2.0, 2.0, 0.2, 5.0)),
        metric_text=(("1/x2^2", "0"), ("0", "1/x2^2")),
        expected_curvature=-1.0,
    )


def _poincare_disk() -> Preset:
    entry = "4 / (1 - x1^2 - x2^2)^2"
    return Preset(
        name="poincare_disk",
        description="Poincare disk model, square chart inside radius 0.9",
        chart=Chart(("x1", "x2"), _box2(-0.6, 0.6, -0.6, 0.6)),
        metric_text=((entry, "0"), ("0", entry)),
        expected_curvature=-1.0,
    )


def _hyperbolic3() -> Preset:
    entry = "1/x3^2"
    return Preset(
        name="hyperbolic3",
        description="hyperbolic 3-space, half-space model (x3 > 0)",
        chart=Chart(("x1", "x2", "x3"), ((-2.0, 2.0), (-2.0, 2.0), (0.2, 5.0))),
        metric_text=((entry, "0", "0"), ("0", entry, "0"), ("0", "0", entry)),
        expected_curvature=-1.0,
    )


def _conformal_bump(a: float = 0.3) -> Preset:
    entry = f"exp(2 * {a!r} * exp(-(x1^2 + x2^2)))"
    return Preset(
        name="conformal_bump",
        description="conformally flat bump, curvature varies with position",
        chart=Chart(("x1", "x2"), _box2(-1.0, 1.0, -1.0, 1.0)),
        metric_text=((entry, "0"), ("0", entry)),
        expected_curvature=None,
        params={"a": float(a)},
    )


KINK_TEXT = "4 * atan(exp(x1 + x2))"


def _pseudospherical(u: str = KINK_TEXT) -> Preset:
    # The induced metric degenerates where sin(u) = 0; for the kink that is
    # the line x1 + x2 = 0, so the metric chart stays on one side of it.
    # (ZCR checks work with the frame triple directly and use a wider box.)
    return Preset(
        name="pseudospherical",
        description="metric dx^2 + 2 cos(u) dx dy + dy^2 induced by a pseudospherical frame",
        chart=Chart(("x1", "x2"), _box2(0.1, 1.2, 0.1, 1.2)),
        metric_text=(("1", f"cos({u})"), (f"cos({u})", "1")),
        expected_curvature=-1.0,
        params={"u": u},
    )


def _constant_curvature(c: float = -1.0) -> Preset:
    c = float(c)
    if c > 0:
        scale = repr(1.0 / c)
        chart = Chart(("x1", "x2"), _box2(_POLAR_CAP, math.pi - _POLAR_CAP, 0.0, 2.0 * math.pi))
        rows = ((scale, "0"), ("0", f"sin(x1)^2 * {scale}"))
        description = f"round sphere of radius {1.0 / math.sqrt(c):.4g}"
    elif c < 0:
        scale = repr(1.0 / (-c))
        chart = Chart(("x1", "x2"), _box2(-2.0, 2.0, 0.2, 5.0))
        entry = f"{scale} / x2^2"
        rows = ((entry, "0"), ("0", entry))
        description = f"rescaled half-plane of curvature {c:.4g}"
    else:
        chart = Chart(("x1", "x2"), _box2(-1.0, 1.0, -1.0, 1.0))
        rows = (("1", "0"), ("0", "1"))
        description = "flat plane (c = 0)"
    return Preset(
        name="constant_curvature",
        description=description,
        chart=chart,
        metric_text=rows,
        expected_curvature=c,
        params={"c": c},
    )


_BUILDERS = {
    "euclidean2": lambda: _euclidean(2),
    "euclidean3": lambda: _euclidean(3),
    "sphere2": _sphere2,
    "sphere3": _sphere3,
    "half_plane": _half_plane,
    "poincare_disk": _poincare_disk,
    "hyperbolic3": _hyperbolic3,
    "conformal_bump": _conformal_bump,
    "pseudospherical": _pseudospherical,
    "constant_curvature": _constant_curvature,
}

PRESET_NAMES = tuple(sorted(_BUILDERS))

_PARAM_KEYS = {
    "conformal_bump": {"a"},
    "pseudospherical": {"u"},
    "constant_curvature": {"c"},
}


def get_preset(name: str, **params) -> Preset:
    if name not in _BUILDERS:
        raise ConfigError("$.preset", f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    allowed = _PARAM_KEYS.get(name, set())
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"preset {name!r} does not take parameters {sorted(unknown)}")
    return _BUILDERS[name](**params)


def preset_metric(name: str, **params) -> ChartMetric:
    """A new metric for the named preset on every call."""
    return get_preset(name, **params).metric()


def catalog() -> list[dict]:
    """JSON-ready listing of every preset with its chart and metric text."""
    out = []
    for name in PRESET_NAMES:
        p = _BUILDERS[name]()
        out.append(
            {
                "name": name,
                "description": p.description,
                "coordinates": list(p.chart.names),
                "domain": [list(interval) for interval in p.chart.box],
                "metric": [list(row) for row in p.metric_text],
                "params": dict(p.params),
                "constant_curvature": p.expected_curvature,
            }
        )
    return out


def two_dim_preset_names() -> tuple[str, ...]:
    return tuple(n for n in PRESET_NAMES if len(_BUILDERS[n]().chart.names) == 2)


def random_metric(dim: int, seed: int) -> ChartMetric:
    """Seeded random analytic metric on [-1, 1]^dim: identity plus a small
    symmetric polynomial perturbation (degree <= 2).  Coefficients are scaled
    so Gershgorin keeps the matrix positive definite on the whole box.
    """
    rng = np.random.default_rng([815, int(seed), int(dim)])
    names = tuple(f"x{i+1}" for i in range(dim))
    monomials = ["1"] + [f"{n}" for n in names]
    for a in range(dim):
        for b in range(a, dim):
            monomials.append(f"{names[a]} * {names[b]}")
    budget_diag = 0.15 / len(monomials)
    budget_off = 0.08 / len(monomials)
    rows = [["0"] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            budget = budget_diag if i == j else budget_off
            terms = []
            for monomial in monomials:
                coefficient = float(rng.uniform(-budget, budget))
                terms.append(f"{coefficient!r} * {monomial}" if monomial != "1" else repr(coefficient))
            poly = " + ".join(terms)
            text = f"1 + {poly}" if i == j else poly
            rows[i][j] = text
            rows[j][i] = text
    chart = Chart(names, tuple((-1.0, 1.0) for _ in range(dim)))
    return ChartMetric(chart, rows)
