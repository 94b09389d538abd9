"""Sections of TM + (trivial line bundle) and the two covariant derivatives,
in coordinate components.

A section is xi + f e with xi a tangent field and e the distinguished unit
section.  The derivatives along a coordinate direction d_k are

    variant "h":  nabla_k (xi + f e) = (nabla^g_k xi + f d_k) + (d_k f + g(d_k, xi)) e
    variant "s":  nabla_k (xi + f e) = (nabla^g_k xi + f d_k) + (d_k f - g(d_k, xi)) e

where nabla^g is the Levi-Civita derivative.  Both preserve the fiber pairing

    <xi + f e, eta + k e> = g(xi, eta) -+ f k     ("h": minus, "s": plus).

Curvature here is computed by finite differences of the exact (symbolic)
first derivative: the inner nabla_j s is exact, the outer d_i is a central
difference with one Richardson extrapolation step.  This keeps the route
independent of the symbolic curvature machinery it is checked against,
which predicts

    R^bundle(d_i, d_j)(xi + f e) = (R - R_K)(d_i, d_j) xi,   K = -1 ("h") / +1 ("s")

with no e-component, where R_K(X, Y)Z = K (g(Y,Z) X - g(X,Z) Y).

Covariant derivatives (512 per metric), the seeded sections the identity
and compatibility checks draw (128 per metric) and the compatibility
residual arrays (128 per metric) are cached in the metric's own ``memo``
(``metricspace.cached_on_metric``), least recently used out first, so they
live exactly as long as the metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cartan import g_pair
from .errors import DimensionError, StepSizeError
from .exprlang import (
    Const,
    Expression,
    Var,
    add,
    differentiate,
    mul,
    sub,
    variables_of,
)
from .metricspace import (
    Chart,
    ChartMetric,
    ExprArray,
    Geometry,
    cached_on_metric,
    constant_curvature_action,
)
from .sasaki import fiber_pairing, variant_sign

__all__ = [
    "BundleSection",
    "random_section",
    "covariant_derivative",
    "BundleCurvatureValue",
    "bundle_curvature",
    "reference_curvature_action",
    "IdentityResidual",
    "identity_residual",
    "bundle_pairing",
    "metric_compatibility_residual",
]


class BundleSection(ExprArray):
    """xi + f e with xi in coordinate components: vector[a] is the d_a
    component, scalar is f; at() gives (xi^1, .., xi^n, f) at a point."""

    def __init__(self, chart: Chart, vector, scalar: Expression):
        vector = tuple(vector)
        if len(vector) != chart.dim:
            raise DimensionError("one vector component per coordinate required")
        super().__init__(chart, (*vector, scalar))
        self.vector, self.scalar = vector, scalar
        allowed = set(chart.names)
        if variables_of(*self.comps) - allowed:
            for component in self.comps:  # name the first component's strays
                stray = variables_of(component) - allowed
                if stray:
                    raise ValueError(f"section uses undeclared variables: {sorted(stray)}")


def _derived_section(chart: Chart, vector: tuple, scalar: Expression) -> BundleSection:
    """A section built here from a checked section, the metric's entries and
    Christoffel symbols and the chart's names: it uses no other variable, so
    it skips the walk over its components that the public constructor runs."""
    section = BundleSection.__new__(BundleSection)
    ExprArray.__init__(section, chart, (*vector, scalar))
    section.vector, section.scalar = vector, scalar
    return section


def _normalized_axis(chart: Chart, axis: int) -> Expression:
    lo, hi = chart.box[axis]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mul(Const(1.0 / half), sub(Var(chart.names[axis]), Const(mid)))


def random_section(chart: Chart, rng: np.random.Generator) -> BundleSection:
    """A section with degree <= 2 polynomial components in the normalized
    chart coordinates, so the values stay O(1) on any box."""
    n = chart.dim
    axes = [_normalized_axis(chart, a) for a in range(n)]
    components = []
    for _ in range(n + 1):
        total: Expression = Const(float(rng.normal()) * 0.5)
        for a in range(n):
            total = add(total, mul(Const(float(rng.normal()) * 0.5), axes[a]))
        for a in range(n):
            for b in range(a, n):
                total = add(
                    total, mul(Const(float(rng.normal()) * 0.25), mul(axes[a], axes[b]))
                )
        components.append(total)
    return BundleSection(chart, tuple(components[:n]), components[n])


@cached_on_metric(maxsize=512)
def covariant_derivative(
    variant: str, metric: ChartMetric, section: BundleSection, direction: int
) -> BundleSection:
    """The exact derivative of a section along the coordinate direction d_k,
    as a new section (see the module docstring for the two formulas)."""
    sign = variant_sign(variant)
    n = metric.dim
    if not 0 <= direction < n:
        raise DimensionError(f"direction must index a coordinate axis, got {direction}")
    name = metric.chart.names[direction]
    gamma = metric.christoffel_entries
    g = metric.entries
    new_vector = []
    for a in range(n):
        total = differentiate(section.vector[a], name)
        for c in range(n):
            total = add(total, mul(gamma[a][direction][c], section.vector[c]))
        if a == direction:
            total = add(total, section.scalar)
        new_vector.append(total)
    new_scalar = differentiate(section.scalar, name)
    for c in range(n):
        new_scalar = add(new_scalar, mul(Const(sign), mul(g[direction][c], section.vector[c])))
    return _derived_section(metric.chart, tuple(new_vector), new_scalar)


_MIN_RELATIVE_STEP = 1e-8


def _geometry_at(metric: ChartMetric, point) -> tuple[Geometry, bool]:
    """The geometry at a point or an ``(m, dim)`` stack of points, as a
    stack, and whether it was a stack."""
    if isinstance(point, np.ndarray) and point.ndim == 2:
        return metric.geometry(point), True
    return metric.geometry(np.array([point], dtype=float)), False


def _partial_by_differences(
    values_at: Callable[[np.ndarray], np.ndarray],
    chart: Chart,
    points: np.ndarray,
    axis: int,
    step: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """d_axis of ``values_at`` at each point of a stack (rows) by a central
    difference with one Richardson step, error O(h^4), and the values at the
    points: one call of ``values_at`` on five stacked blocks of rows, the
    points moved by +h, -h, +h/2 and -h/2, then the points themselves."""
    lo, hi = chart.box[axis]
    extent = hi - lo
    h = 1e-4 * extent if step is None else float(step)
    if h < _MIN_RELATIVE_STEP * extent:
        raise StepSizeError(
            f"step {h:.3e} is below {_MIN_RELATIVE_STEP:g} of the axis extent {extent:.3e}"
        )
    m = len(points)
    rows = np.tile(points, (5, 1))
    rows[: 4 * m, axis] += np.repeat((h, -h, 0.5 * h, -0.5 * h), m)
    moved = rows[: 4 * m, axis]
    outside = ~((lo <= moved) & (moved <= hi))
    if outside.any():  # name the first point's first offset that leaves
        k, offset = divmod(int(outside.reshape(4, m).T.argmax()), 4)
        raise StepSizeError(
            f"difference stencil leaves the chart at {tuple(rows[offset * m + k].tolist())}; "
            "move the point inward or pass a smaller step"
        )
    plus, minus, half_plus, half_minus, values = np.split(values_at(rows), 5)
    wide = (plus - minus) / (2.0 * h)
    narrow = (half_plus - half_minus) / h
    return (4.0 * narrow - wide) / 3.0, values


def _outer_derivative(
    variant: str,
    metric: ChartMetric,
    section: BundleSection,
    direction: int,
    geometry: Geometry,
    step: float | None,
) -> np.ndarray:
    """nabla_direction of a section at each point of the geometry's stack
    (rows), with the d-part taken by finite differences and the connection
    terms exact; each connection term is one ``np.matmul`` over the stack,
    a matrix-vector and a dot product per point."""
    n = metric.dim
    deriv, values = _partial_by_differences(
        section.at, metric.chart, geometry.points, direction, step
    )
    xi, sign = values[:, :n, None], variant_sign(variant)
    out = np.empty_like(values)
    out[:, :n] = deriv[:, :n] + (geometry.gamma[:, :, direction, :] @ xi)[:, :, 0]
    out[:, n] = deriv[:, n] + sign * (geometry.g[:, direction, None, :] @ xi)[:, 0, 0]
    out[:, direction] += values[:, n]
    return out


@dataclass(frozen=True)
class BundleCurvatureValue:
    """R(d_i, d_j) applied to a section at a point: a tangent part (in
    coordinate components) and the coefficient of e; at a stack of m points,
    an ``(m, dim)`` tangent part and m coefficients."""

    vector: np.ndarray
    e_component: float | np.ndarray


def _curvature_rows(
    variant: str,
    metric: ChartMetric,
    section: BundleSection,
    i: int,
    j: int,
    geometry: Geometry,
    step: float | None,
) -> np.ndarray:
    inner_j = covariant_derivative(variant, metric, section, j)
    inner_i = covariant_derivative(variant, metric, section, i)
    forward = _outer_derivative(variant, metric, inner_j, i, geometry, step)
    backward = _outer_derivative(variant, metric, inner_i, j, geometry, step)
    return forward - backward


def bundle_curvature(
    variant: str,
    metric: ChartMetric,
    section: BundleSection,
    i: int,
    j: int,
    point: Sequence[float] | np.ndarray,
    step: float | None = None,
) -> BundleCurvatureValue:
    """R(d_i, d_j) s = nabla_i (nabla_j s) - nabla_j (nabla_i s) at a point,
    outer derivatives by finite differences of the exact inner ones.

    At an ``(m, dim)`` stack of points, one row per point, each bit-identical
    to the value at its point."""
    geometry, stack = _geometry_at(metric, point)
    difference = _curvature_rows(variant, metric, section, i, j, geometry, step)
    n = metric.dim
    if stack:
        return BundleCurvatureValue(vector=difference[:, :n], e_component=difference[:, n])
    return BundleCurvatureValue(vector=difference[0, :n], e_component=float(difference[0, n]))


def _reference_action(
    variant: str, riemann: np.ndarray, g: np.ndarray, xi: np.ndarray, i: int, j: int
) -> np.ndarray:
    """(R - R_K)(d_i, d_j) xi from the values of R and g at a point, or at
    each point of a stack (rows)."""
    xi = np.asarray(xi, dtype=float)
    basis = np.eye(xi.shape[-1])
    tangent = (riemann[..., i, j] @ xi[..., None])[..., 0]
    return tangent - constant_curvature_action(-variant_sign(variant), g, basis[i], basis[j], xi)


def reference_curvature_action(
    variant: str, metric: ChartMetric, xi: np.ndarray, i: int, j: int,
    point: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """(R - R_K)(d_i, d_j) xi from the Riemann tensor, the symbolic route the
    finite-difference curvature is compared against; at an ``(m, dim)`` stack
    of points, one row per point, with xi one row per point or one for all."""
    geometry = metric.geometry(point)
    return _reference_action(variant, geometry.riemann, geometry.g, xi, i, j)


@cached_on_metric(maxsize=128, metric_arg=0)
def _seeded_sections(metric: ChartMetric, count: int, seed: int) -> tuple:
    chart = metric.chart
    rng = np.random.default_rng([2208, seed, count, chart.dim])
    return tuple(random_section(chart, rng) for _ in range(count))


@dataclass(frozen=True)
class IdentityResidual:
    """Worst deviation of the finite-difference curvature from (R - R_K) xi
    over the sampled sections and all coordinate pairs; at a stack of
    points, two arrays with one value per point."""

    vector: float | np.ndarray
    e_component: float | np.ndarray

    @property
    def worst(self) -> float | np.ndarray:
        if np.ndim(self.vector):  # max() per point: the e part wins only if larger
            return np.where(self.e_component > self.vector, self.e_component, self.vector)
        return max(self.vector, self.e_component)


def identity_residual(
    variant: str,
    metric: ChartMetric,
    point: Sequence[float] | np.ndarray,
    trials: int = 10,
    seed: int = 0,
) -> IdentityResidual:
    """The identity residual at a point; at an ``(m, dim)`` stack, the m
    residuals, each bit-identical to the residual at its point.

    A stack runs each stage once for all its points, in the order one point
    meets them (chart check, section values, stencil check, g with its guard,
    nonsingular and then positive definite, Gamma, R last), so it raises the
    earliest failing stage's first failure, not necessarily the first
    point's: a grid scan (``metricspace.grid_scan``) replays such a stack
    point by point."""
    geometry, stack = _geometry_at(metric, point)
    points = geometry.points
    n = metric.dim
    worst_vector = worst_e = np.zeros(len(points))
    for section in _seeded_sections(metric, trials, seed):
        xi = section.at(points)[:, :n]
        for i in range(n):
            for j in range(i + 1, n):
                measured = _curvature_rows(variant, metric, section, i, j, geometry, None)
                expected = _reference_action(variant, geometry.riemann, geometry.g, xi, i, j)
                deviation = np.abs(measured[:, :n] - expected).max(axis=1)
                e_part = np.abs(measured[:, n])
                # max() per point: the new value wins only if larger, so NaN loses
                worst_vector = np.where(deviation > worst_vector, deviation, worst_vector)
                worst_e = np.where(e_part > worst_e, e_part, worst_e)
    if stack:
        return IdentityResidual(worst_vector, worst_e)
    return IdentityResidual(float(worst_vector[0]), float(worst_e[0]))


def _pairing_expression(
    variant: str, metric: ChartMetric, s: BundleSection, t: BundleSection
) -> Expression:
    return fiber_pairing(variant, g_pair(metric, s.vector, t.vector), mul(s.scalar, t.scalar))


def bundle_pairing(
    variant: str,
    metric: ChartMetric,
    s_value: np.ndarray,
    t_value: np.ndarray,
    point: Sequence[float],
) -> float:
    """<s, t> at a point from component values (xi^1..xi^n, f)."""
    n = metric.dim
    g = metric.definite_metric_at(point)
    s_value = np.asarray(s_value, dtype=float)
    t_value = np.asarray(t_value, dtype=float)
    tangent = float(s_value[:n] @ g @ t_value[:n])
    return fiber_pairing(variant, tangent, float(s_value[n] * t_value[n]))


@cached_on_metric(maxsize=128)
def _compatibility_residuals(variant: str, metric: ChartMetric, trials: int, seed: int) -> ExprArray:
    """The residuals d_k <s,t> - <nabla_k s, t> - <s, nabla_k t> for seeded
    section pairs, one entry per (trial, direction)."""
    n = metric.dim
    sections = _seeded_sections(metric, 2 * trials, seed)
    residuals = []
    for m in range(trials):
        s, t = sections[2 * m], sections[2 * m + 1]
        pairing = _pairing_expression(variant, metric, s, t)
        for k in range(n):
            lhs = differentiate(pairing, metric.chart.names[k])
            ds = covariant_derivative(variant, metric, s, k)
            dt = covariant_derivative(variant, metric, t, k)
            rhs = add(
                _pairing_expression(variant, metric, ds, t),
                _pairing_expression(variant, metric, s, dt),
            )
            residuals.append(sub(lhs, rhs))
    return ExprArray(metric.chart, residuals)


def metric_compatibility_residual(
    variant: str,
    metric: ChartMetric,
    point: Sequence[float] | np.ndarray,
    trials: int = 10,
    seed: int = 0,
) -> float | np.ndarray:
    """Max violation of d_k <s,t> = <nabla_k s, t> + <s, nabla_k t> at a point
    over seeded section pairs and all directions.  Exact symbolic on both
    sides, so this should sit at rounding level.

    At an ``(m, dim)`` stack of points, an array of the m values, each
    bit-identical to the value at its point."""
    residuals = _compatibility_residuals(variant, metric, trials, seed)
    if isinstance(point, np.ndarray) and point.ndim == 2:
        return np.abs(residuals.at(point)).max(axis=1)
    return float(np.max(np.abs(residuals.at(point))))
