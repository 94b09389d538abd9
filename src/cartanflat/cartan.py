"""Moving orthonormal frames, scalar differential forms, and the 2D structure
equations.

Conventions, fixed once and used everywhere downstream:

    frame matrix      E[a][j] = component of e_j along d_a   (columns = frame)
    coframe matrix    Theta[i][k] = dx^k-coefficient of omega^i,  Theta = E^-1
    connection forms  omega_i^j(X) = g(nabla_X e_i, e_j)
    phi := omega_2^1  with  d omega^1 = omega^2 ^ phi,
                            d omega^2 = -omega^1 ^ phi,
                            d phi     = K omega^1 ^ omega^2.

Gram-Schmidt runs in coordinate-index order, which fixes the frame gauge
deterministically (E is upper triangular).  A metric has one frame:
orthonormal_frame builds it on first request and keeps it in the metric's
``memo``, so the frame, its connection forms and their compiled arrays live
exactly as long as the metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionError, SingularMetricError
from .exprlang import (
    Const,
    Expression,
    add,
    call,
    differentiate,
    div,
    mul,
    neg,
    sub,
)
from .metricspace import Chart, ChartMetric, ExprArray, elementwise, symbolic_inverse

__all__ = [
    "ScalarOneForm",
    "ScalarTwoForm",
    "exterior_derivative",
    "wedge",
    "FrameField",
    "ConnectionForms",
    "orthonormal_frame",
    "g_pair",
    "structure_forms",
    "structural_residual",
    "gauss_curvature",
]


class ScalarOneForm(ExprArray):
    """A 1-form sum_k comps[k] dx^k."""

    def __init__(self, chart: Chart, comps):
        super().__init__(chart, comps)
        if self.shape != (chart.dim,):
            raise DimensionError("one component per coordinate required")

    def __add__(self, other: "ScalarOneForm") -> "ScalarOneForm":
        return ScalarOneForm(self.chart, elementwise(add, self.comps, other.comps))

    def __sub__(self, other: "ScalarOneForm") -> "ScalarOneForm":
        return ScalarOneForm(self.chart, elementwise(sub, self.comps, other.comps))

    def __neg__(self) -> "ScalarOneForm":
        return ScalarOneForm(self.chart, elementwise(neg, self.comps))


def antisymmetric(n: int, upper: dict, zero) -> tuple:
    """The n x n table with the given (i < j) blocks above the diagonal, their
    negatives below it, and ``zero`` elsewhere."""
    table = [[zero] * n for _ in range(n)]
    for (i, j), block in upper.items():
        table[i][j] = block
        table[j][i] = elementwise(neg, block)
    return tuple(tuple(row) for row in table)


class ScalarTwoForm(ExprArray):
    """A 2-form with exactly antisymmetric coefficient matrix:
    value on (d_i, d_j) is comps[i][j]."""

    @staticmethod
    def from_upper(chart: Chart, upper: dict[tuple[int, int], Expression]) -> "ScalarTwoForm":
        return ScalarTwoForm(chart, antisymmetric(chart.dim, upper, Const(0.0)))

    def __add__(self, other: "ScalarTwoForm") -> "ScalarTwoForm":
        return ScalarTwoForm(self.chart, elementwise(add, self.comps, other.comps))

    def __sub__(self, other: "ScalarTwoForm") -> "ScalarTwoForm":
        return ScalarTwoForm(self.chart, elementwise(sub, self.comps, other.comps))


def exterior_derivative(form: ScalarOneForm) -> ScalarTwoForm:
    """(d a)_ij = d_i a_j - d_j a_i."""
    chart = form.chart
    names = chart.names
    n = chart.dim
    upper = {
        (i, j): sub(differentiate(form.comps[j], names[i]), differentiate(form.comps[i], names[j]))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return ScalarTwoForm.from_upper(chart, upper)


def wedge(a: ScalarOneForm, b: ScalarOneForm) -> ScalarTwoForm:
    """(a /\\ b)_ij = a_i b_j - a_j b_i."""
    chart = a.chart
    n = chart.dim
    upper = {
        (i, j): sub(mul(a.comps[i], b.comps[j]), mul(a.comps[j], b.comps[i]))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return ScalarTwoForm.from_upper(chart, upper)


def _coordinate_vector(n: int, j: int) -> tuple[Expression, ...]:
    return tuple(Const(1.0 if a == j else 0.0) for a in range(n))


def g_pair(metric: ChartMetric, u: Sequence[Expression], v: Sequence[Expression]) -> Expression:
    """g(u, v) = sum_ab g_ab u^a v^b, for vectors in coordinate components."""
    total: Expression = Const(0.0)
    for a in range(metric.dim):
        for b in range(metric.dim):
            total = add(total, mul(mul(metric.entries[a][b], u[a]), v[b]))
    return total


class FrameField:
    """An orthonormal frame with its dual coframe, both symbolic.

    For n <= 3 the coframe is Theta = E^-1 computed symbolically; beyond that
    coframe_at falls back to a numeric inverse per point and the form-level
    operations that need symbolic Theta refuse to run.
    """

    def __init__(self, metric: ChartMetric, frame_entries, coframe_entries):
        self.metric = metric
        self.chart = metric.chart
        self.frame_entries = tuple(tuple(row) for row in frame_entries)
        self.coframe_entries = (
            tuple(tuple(row) for row in coframe_entries) if coframe_entries is not None else None
        )

    @property
    def dim(self) -> int:
        return self.metric.dim

    @cached_property
    def _frame(self) -> ExprArray:
        return ExprArray(self.chart, self.frame_entries)

    @cached_property
    def _coframe(self) -> ExprArray | None:
        if self.coframe_entries is None:
            return None
        return ExprArray(self.chart, self.coframe_entries)

    def frame_at(self, point: Sequence[float]) -> np.ndarray:
        return self._frame.at(point)

    def coframe_at(self, point: Sequence[float]) -> np.ndarray:
        if self._coframe is not None:
            return self._coframe.at(point)
        return np.linalg.inv(self.frame_at(point))

    def coframe_form(self, i: int) -> ScalarOneForm:
        if self.coframe_entries is None:
            raise DimensionError("symbolic coframe only available for n <= 3")
        return ScalarOneForm(self.chart, self.coframe_entries[i])

    @cached_property
    def connection(self) -> "ConnectionForms":
        return _build_connection(self)

    # -- cached n=2 structure data -----------------------------------------

    @cached_property
    def _structure(self) -> ExprArray:
        if self.dim != 2:
            raise DimensionError("structure equations in this form are 2D-only")
        phi = self.connection.omega[1][0]
        r1, r2 = structure_forms(self.coframe_form(0), self.coframe_form(1), phi)
        return ExprArray(self.chart, (r1.comps[0][1], r2.comps[0][1]))

    @cached_property
    def _gauss(self) -> ExprArray:
        if self.dim != 2:
            raise DimensionError("gauss_curvature is 2D-only")
        phi = self.connection.omega[1][0]
        dphi = exterior_derivative(phi)
        volume = wedge(self.coframe_form(0), self.coframe_form(1))
        return ExprArray(self.chart, (dphi.comps[0][1], volume.comps[0][1]))


@dataclass(frozen=True)
class ConnectionForms:
    """Matrix of connection 1-forms omega[i][j] = omega_i^j; antisymmetry in
    (i, j) is a verified property, not a construction shortcut: every entry is
    assembled independently from g(nabla e_i, e_j)."""

    frame: FrameField
    omega: tuple[tuple[ScalarOneForm, ...], ...]

    @property
    def phi(self) -> ScalarOneForm:
        if self.frame.dim != 2:
            raise DimensionError("phi = omega_2^1 is the n=2 connection form")
        return self.omega[1][0]


def orthonormal_frame(metric: ChartMetric) -> FrameField:
    """The metric's orthonormal frame: index-ordered Gram-Schmidt over the
    coordinate fields, built on first request and kept in ``metric.memo``."""
    frame = metric.memo.get("orthonormal_frame")
    if frame is None:
        frame = metric.memo["orthonormal_frame"] = _gram_schmidt(metric)
    return frame


def _gram_schmidt(metric: ChartMetric) -> FrameField:
    n = metric.dim
    frame_vectors: list[tuple[Expression, ...]] = []
    for j in range(n):
        w = list(_coordinate_vector(n, j))
        for prev in frame_vectors:
            coefficient = g_pair(metric, _coordinate_vector(n, j), prev)
            for a in range(n):
                w[a] = sub(w[a], mul(coefficient, prev[a]))
        norm = call("sqrt", g_pair(metric, w, w))
        frame_vectors.append(tuple(div(component, norm) for component in w))
    # columns are frame vectors: E[a][j] = (e_j)^a
    frame_entries = tuple(tuple(frame_vectors[j][a] for j in range(n)) for a in range(n))
    coframe_entries = None
    if n <= 3:
        coframe_entries = tuple(
            tuple(row) for row in symbolic_inverse([list(r) for r in frame_entries])
        )
    return FrameField(metric, frame_entries, coframe_entries)


def _build_connection(f: FrameField) -> ConnectionForms:
    metric = f.metric
    names = f.chart.names
    n = f.dim
    gamma = metric.christoffel_entries
    g = metric.entries
    e = f.frame_entries
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            comps = []
            for k in range(n):
                total: Expression = Const(0.0)
                for a in range(n):
                    covariant = differentiate(e[a][i], names[k])
                    for c in range(n):
                        covariant = add(covariant, mul(gamma[a][k][c], e[c][i]))
                    for b in range(n):
                        total = add(total, mul(mul(g[a][b], covariant), e[b][j]))
                comps.append(total)
            row.append(ScalarOneForm(f.chart, tuple(comps)))
        table.append(tuple(row))
    return ConnectionForms(f, tuple(table))


def structure_forms(
    omega1: ScalarOneForm, omega2: ScalarOneForm, phi: ScalarOneForm
) -> tuple[ScalarTwoForm, ScalarTwoForm]:
    """d omega1 - omega2 /\\ phi and d omega2 + omega1 /\\ phi: both vanish
    exactly when (omega1, omega2, phi) satisfy the 2D structure equations."""
    first = exterior_derivative(omega1) - wedge(omega2, phi)
    second = exterior_derivative(omega2) + wedge(omega1, phi)
    return first, second


def structural_residual(f: FrameField, point: Sequence[float]) -> float:
    """Max violation of d omega^1 = omega^2 /\\ phi and d omega^2 = -omega^1 /\\ phi
    at a point (dx/\\dy coefficient)."""
    r1, r2 = f._structure.at(point).tolist()
    return max(abs(r1), abs(r2))


def gauss_curvature(f: FrameField, point: Sequence[float]) -> float:
    """K from d phi = K omega^1 /\\ omega^2 (the frame route, independent of the
    Riemann-tensor route)."""
    numerator, volume = f._gauss.at(point).tolist()
    if abs(volume) < 1e-14:
        raise SingularMetricError("degenerate volume form", point=f.chart.require(point))
    return numerator / volume
