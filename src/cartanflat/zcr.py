"""Zero-curvature representation of the sine-Gordon equation.

For any C^2 function u(x1, x2) on a 2-d chart, define the triple of
one-forms

    omega1 = cos(u/2) (dx1 + dx2)
    omega2 = sin(u/2) (dx1 - dx2)
    phi    = (d2 u dx2 - d1 u dx1) / 2

The first two structure equations hold identically in u,

    d omega1 = omega2 ^ phi        d omega2 = -omega1 ^ phi,

so when the triple is packed into the so(2,1)-valued matrix
A = m1 omega1 + m2 omega2 + m3 phi (same layout as the hyperbolic
connection matrix over a surface) the curvature collapses to a single
coefficient:

    dA + A ^ A = (d1 d2 u - sin u) dx1 ^ dx2  m3

That is, A is flat exactly when u solves the sine-Gordon equation
d1 d2 u = sin u.  Because m3 has unit entries, the coordinate-gauge
residual max|Omega(d_1, d_2)| equals |d1 d2 u - sin u| on the nose.
This gauge is deliberate: it stays meaningful where sin u = 0, where
the associated surface geometry breaks down.

The geometric side of the same computation: where sin u != 0 the metric

    [[1, cos u], [cos u, 1]]

is positive definite with orthonormal coframe (omega1, omega2) and
connection form phi, and its Gauss curvature is -d1 d2 u / sin u.  So
the metric has constant curvature -1 exactly on sine-Gordon solutions.
induced_metric builds that metric on a caller-supplied chart; the chart
must avoid the degenerate locus or construction fails with
SingularMetricError.

Residual scans default to a [-2, 2]^2 chart, which for the standard
kink preset crosses the degenerate line x1 + x2 = 0; only the
metric-free checks run there, which is the point of keeping them
metric-free.

A SineGordonRep keeps what it derives from u (triple, connection,
curvature, structure forms, PDE residual) in cached properties on itself;
representation builds a new rep on every call, so nothing outlives it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .cartan import OneForm, TwoForm
from .cartan import structure_forms as _structure_forms
from .errors import DimensionError
from .exprlang import (
    Const,
    Expression,
    call,
    differentiate,
    mul,
    neg,
    parse,
    simplify,
    sub,
    variables_of,
)
from .metricspace import Chart, ChartMetric, ExprArray, grid_scan
from .sasaki import basis_form, curvature_form, so21_basis

__all__ = [
    "DEFAULT_NAMES",
    "DEFAULT_BOX",
    "default_chart",
    "SineGordonRep",
    "representation",
    "induced_metric",
    "EquivalenceReport",
    "equivalence_scan",
]

DEFAULT_NAMES = ("x1", "x2")
DEFAULT_BOX = ((-2.0, 2.0), (-2.0, 2.0))


def default_chart() -> Chart:
    return Chart(DEFAULT_NAMES, DEFAULT_BOX)


def _as_field(u, chart: Chart) -> Expression:
    if isinstance(u, str):
        return parse(u, chart.names)
    extra = variables_of(u) - set(chart.names)
    if extra:
        raise ValueError(f"field uses undeclared variables: {sorted(extra)}")
    return u


def _one_or_stack(values: np.ndarray) -> float | np.ndarray:
    """One point's value as a float; a stack's values as they are."""
    return values if values.ndim else float(values)


@dataclass(frozen=True)
class SineGordonRep:
    """Everything derived from one scalar field u: the one-form triple,
    the so(2,1) matrix form, its curvature, and the PDE residual."""

    chart: Chart
    u: Expression

    def __post_init__(self):
        if self.chart.dim != 2:
            raise DimensionError("the sine-Gordon representation needs a 2-d chart")
        object.__setattr__(self, "u", _as_field(self.u, self.chart))

    @cached_property
    def triple(self) -> tuple[OneForm, OneForm, OneForm]:
        half = mul(Const(0.5), self.u)
        cos_half = call("cos", half)
        sin_half = call("sin", half)
        d1, d2 = (differentiate(self.u, name) for name in self.chart.names)
        omega1 = OneForm(self.chart, (cos_half, cos_half))
        omega2 = OneForm(self.chart, (sin_half, simplify(neg(sin_half))))
        phi = OneForm(
            self.chart,
            (simplify(mul(Const(-0.5), d1)), simplify(mul(Const(0.5), d2))),
        )
        return omega1, omega2, phi

    @cached_property
    def connection(self) -> OneForm:
        return basis_form(self.chart, self.triple, so21_basis())

    @cached_property
    def curvature(self) -> TwoForm:
        return curvature_form(self.connection)

    @cached_property
    def structure_forms(self) -> tuple[TwoForm, TwoForm]:
        """d omega1 - omega2 ^ phi and d omega2 + omega1 ^ phi; both are
        identically zero whatever u is, so evaluating them only measures
        floating-point cancellation."""
        return _structure_forms(*self.triple)

    @cached_property
    def _pde_fn(self) -> ExprArray:
        x1, x2 = self.chart.names
        mixed = differentiate(differentiate(self.u, x1), x2)
        return ExprArray(self.chart, sub(mixed, call("sin", self.u)))

    def pde_residual(self, point) -> float | np.ndarray:
        """d1 d2 u - sin u at the point, with sign; at a stack of points, one
        value per point."""
        return _one_or_stack(self._pde_fn.at(point))

    def zcr_residual(self, point) -> float | np.ndarray:
        """max |(dA + A^A)(d_1, d_2)| at the point (coordinate gauge); at a
        stack of points, one value per point."""
        entries = np.abs(self.curvature.at(point)[..., 0, 1, :, :])
        return _one_or_stack(entries.max(axis=(-2, -1)))

    def structure_residual(self, point: Sequence[float]) -> float:
        first, second = self.structure_forms
        return max(
            float(np.max(np.abs(first.at(point)))),
            float(np.max(np.abs(second.at(point)))),
        )


def representation(u, chart: Chart | None = None) -> SineGordonRep:
    """SineGordonRep for u given as text or expression, on the default chart
    unless another is given."""
    return SineGordonRep(default_chart() if chart is None else chart, u)


def induced_metric(u, chart: Chart) -> ChartMetric:
    """The metric [[1, cos u], [cos u, 1]] on the given chart.  Raises
    SingularMetricError if the chart touches the locus sin u = 0."""
    field = _as_field(u, chart)
    cos_u = call("cos", field)
    return ChartMetric(chart, ((Const(1.0), cos_u), (cos_u, Const(1.0))))


_RATIO_FLOOR = 1e-9


@dataclass(frozen=True)
class EquivalenceReport:
    """Pointwise comparison of the connection-curvature residual against
    the PDE residual |d1 d2 u - sin u| over a grid."""

    resolution: int
    points: int
    max_zcr: float
    argmax_zcr: tuple
    max_pde: float
    argmax_pde: tuple
    correlation: float | None
    ratio_low: float | None
    ratio_high: float | None


def equivalence_scan(u, chart: Chart | None = None, resolution: int = 21) -> EquivalenceReport:
    """Evaluate both residuals over an inner grid.

    The ratio bounds cover the points where the PDE residual exceeds
    1e-9 (on near-solutions there is nothing meaningful to divide by);
    the correlation is Pearson's, or None when either residual is flat
    across the grid."""
    rep = representation(u, chart)
    chart = rep.chart

    def over_grid(evaluate) -> tuple[np.ndarray, np.ndarray]:
        """The grid's points, and evaluate's values at them."""
        points, values = zip(*grid_scan(chart, resolution, evaluate))
        return np.concatenate(points), np.concatenate(values)

    points, zcr_values = over_grid(rep.zcr_residual)
    pde_values = np.abs(over_grid(rep.pde_residual)[1])
    i_zcr = int(np.argmax(zcr_values))
    i_pde = int(np.argmax(pde_values))
    correlation = None
    if np.std(zcr_values) > 1e-14 and np.std(pde_values) > 1e-14:
        correlation = float(np.corrcoef(zcr_values, pde_values)[0, 1])
    mask = pde_values > _RATIO_FLOOR
    ratio_low = ratio_high = None
    if mask.any():
        ratios = zcr_values[mask] / pde_values[mask]
        ratio_low = float(ratios.min())
        ratio_high = float(ratios.max())
    return EquivalenceReport(
        resolution=resolution,
        points=len(zcr_values),
        max_zcr=float(zcr_values[i_zcr]),
        argmax_zcr=tuple(points[i_zcr].tolist()),
        max_pde=float(pde_values[i_pde]),
        argmax_pde=tuple(points[i_pde].tolist()),
        correlation=correlation,
        ratio_low=ratio_low,
        ratio_high=ratio_high,
    )
