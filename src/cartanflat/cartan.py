"""Differential forms, moving orthonormal frames, and the 2D structure
equations.

One exterior calculus serves scalar and matrix-valued forms: a OneForm or
TwoForm has coefficients that are expressions or equally shaped matrices of
expressions.  exterior_derivative acts entry by entry, and wedge multiplies
coefficients, as matrices where they are matrices, so the curvature of a
matrix one-form A is exterior_derivative(A) + wedge(A, A).  Every sum is
seeded with 0.0 and added left to right.

Conventions, fixed once and used everywhere downstream:

    frame matrix      E[a][j] = component of e_j along d_a   (columns = frame)
    coframe matrix    Theta[i][k] = dx^k-coefficient of omega^i (= theta^i),
                      Theta = E^T g (= E^-1)
    connection forms  omega_i^j(X) = g(nabla_X e_i, e_j) = theta^j(nabla_X e_i),
                      with nabla_k v = d_k v + Gamma_k v (levi_civita_derivative)
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
from functools import cached_property, reduce
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
from .metricspace import (
    Chart,
    ChartMetric,
    ExprArray,
    cached_on_metric,
    elementwise,
)

__all__ = [
    "OneForm",
    "TwoForm",
    "exterior_derivative",
    "wedge",
    "FrameField",
    "ConnectionForms",
    "orthonormal_frame",
    "g_pair",
    "levi_civita_derivative",
    "structure_forms",
    "structural_residual",
    "gauss_curvature",
]


def _entrywise(fn):
    """A form's method applying ``fn`` entry by entry to it and the other
    forms given, over its whole coefficient table."""

    def apply(self, *others):
        return type(self)(self.chart, elementwise(fn, self.comps, *(o.comps for o in others)))

    return apply


class OneForm(ExprArray):
    """A 1-form sum_k comps[k] dx^k whose coefficients comps[k] are
    expressions, or equally shaped matrices of them; at() gives them all at
    a point, shape (dim, *coefficient shape)."""

    def __init__(self, chart: Chart, comps):
        super().__init__(chart, comps)
        if self.shape[:1] != (chart.dim,):
            raise DimensionError("one coefficient per coordinate required")

    __add__, __sub__, __neg__ = _entrywise(add), _entrywise(sub), _entrywise(neg)

    def entry_form(self, row: int, col: int) -> "OneForm":
        """The scalar 1-form of one entry of matrix coefficients."""
        return OneForm(self.chart, tuple(m[row][col] for m in self.comps))

    def value(self, point: Sequence[float], velocity: Sequence[float]) -> np.ndarray:
        """The coefficient A(X) for the tangent vector X = velocity at the point."""
        v = np.asarray(velocity, dtype=float)
        if v.shape != (self.chart.dim,):
            raise DimensionError("velocity must have one component per coordinate")
        return np.tensordot(v, self.at(point), axes=(0, 0))


class TwoForm(ExprArray):
    """A 2-form with coefficients comps[i][j], its value on (d_i, d_j),
    exactly antisymmetric in (i, j); each is an expression or a matrix of
    them, as for OneForm; at() gives them all at a point, shape
    (dim, dim, *coefficient shape)."""

    @staticmethod
    def from_upper(chart: Chart, upper: dict, zero) -> "TwoForm":
        """The 2-form with the given (i < j) coefficients, their negatives
        at (j, i) and ``zero`` on the diagonal."""
        table = [[zero] * chart.dim for _ in range(chart.dim)]
        for (i, j), block in upper.items():
            table[i][j] = block
            table[j][i] = elementwise(neg, block)
        return TwoForm(chart, table)

    __add__, __sub__ = _entrywise(add), _entrywise(sub)

    def value(self, point: Sequence[float], u: Sequence[float], v: Sequence[float]) -> np.ndarray:
        """The coefficient Omega(X, Y) for tangent vectors X = u, Y = v."""
        n = self.chart.dim
        uu = np.asarray(u, dtype=float)
        vv = np.asarray(v, dtype=float)
        if uu.shape != (n,) or vv.shape != (n,):
            raise DimensionError("vectors must have one component per coordinate")
        return np.einsum("k,l,kl...->...", uu, vv, self.at(point))


def _sum(terms) -> Expression:
    """0.0 + t_1 + t_2 + ..., added left to right."""
    return reduce(add, terms, Const(0.0))


def _times(x, y):
    """x y for expressions; the matrix product for matrices of them."""
    if isinstance(x, Expression):
        return mul(x, y)
    return tuple(
        tuple(_sum(mul(x_row[c], y[c][b]) for c in range(len(y))) for b in range(len(y[0])))
        for x_row in x
    )


def _upper_form(form: OneForm, coefficient) -> TwoForm:
    """The 2-form with ``coefficient(i, j)`` at each i < j, and zero
    coefficients shaped like the form's on the diagonal."""
    n = form.chart.dim
    upper = {(i, j): coefficient(i, j) for i in range(n) for j in range(i + 1, n)}
    zero = elementwise(lambda _: Const(0.0), form.comps[0])
    return TwoForm.from_upper(form.chart, upper, zero=zero)


def exterior_derivative(form: OneForm) -> TwoForm:
    """(d a)_ij = d_i a_j - d_j a_i, entry by entry."""
    names, comps = form.chart.names, form.comps

    def coefficient(i: int, j: int):
        return elementwise(
            lambda a_j, a_i: sub(differentiate(a_j, names[i]), differentiate(a_i, names[j])),
            comps[j],
            comps[i],
        )

    return _upper_form(form, coefficient)


def wedge(a: OneForm, b: OneForm) -> TwoForm:
    """(a /\\ b)_ij = a_i b_j - a_j b_i, matrix coefficients multiplying as
    matrices."""
    def coefficient(i: int, j: int):
        return elementwise(sub, _times(a.comps[i], b.comps[j]), _times(a.comps[j], b.comps[i]))

    return _upper_form(a, coefficient)


def _coordinate_vector(n: int, j: int) -> tuple[Expression, ...]:
    return tuple(Const(1.0 if a == j else 0.0) for a in range(n))


def g_pair(metric: ChartMetric, u: Sequence[Expression], v: Sequence[Expression]) -> Expression:
    """g(u, v) = sum_ab g_ab u^a v^b, for vectors in coordinate components."""
    n = metric.dim
    return _sum(mul(mul(metric.entries[a][b], u[a]), v[b]) for a in range(n) for b in range(n))


def levi_civita_derivative(
    metric: ChartMetric, v: Sequence[Expression], k: int
) -> tuple[Expression, ...]:
    """nabla_k v = d_k v + Gamma_k v for a vector field in coordinate
    components: entry a is d_k v^a, then + Gamma^a_kc v^c in order of c."""
    name, gamma, n = metric.chart.names[k], metric.christoffel_entries, metric.dim
    return tuple(
        reduce(add, (mul(gamma[a][k][c], v[c]) for c in range(n)), differentiate(v[a], name))
        for a in range(n)
    )


class FrameField:
    """An orthonormal frame with its dual coframe, both symbolic."""

    def __init__(self, metric: ChartMetric, frame_entries):
        self.metric = metric
        self.chart = metric.chart
        self.frame_entries = tuple(tuple(row) for row in frame_entries)

    @property
    def dim(self) -> int:
        return self.metric.dim

    @cached_property
    def _frame(self) -> ExprArray:
        return ExprArray(self.chart, self.frame_entries)

    @cached_property
    def coframe_entries(self) -> tuple:
        """Theta[i][k] = sum_a E[a][i] g_ak: E^T g E = I, so Theta E = I."""
        n, e, g = self.dim, self.frame_entries, self.metric.entries
        return tuple(
            tuple(_sum(mul(e[a][i], g[a][k]) for a in range(n)) for k in range(n)) for i in range(n)
        )

    @cached_property
    def _coframe(self) -> ExprArray:
        return ExprArray(self.chart, self.coframe_entries)

    def frame_at(self, point: Sequence[float]) -> np.ndarray:
        return self._frame.at(point)

    def coframe_at(self, point: Sequence[float]) -> np.ndarray:
        return self._coframe.at(point)

    def coframe_form(self, i: int) -> OneForm:
        return OneForm(self.chart, self.coframe_entries[i])

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
    assembled independently as theta^j(nabla e_i), the coframe applied to the
    Levi-Civita derivative of a frame vector."""

    frame: FrameField
    omega: tuple[tuple[OneForm, ...], ...]

    @property
    def phi(self) -> OneForm:
        if self.frame.dim != 2:
            raise DimensionError("phi = omega_2^1 is the n=2 connection form")
        return self.omega[1][0]


@cached_on_metric(maxsize=1, metric_arg=0)
def orthonormal_frame(metric: ChartMetric) -> FrameField:
    """The metric's orthonormal frame: index-ordered Gram-Schmidt over the
    coordinate fields, built on first request and kept in ``metric.memo``."""
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
    return FrameField(metric, frame_entries)


def _build_connection(f: FrameField) -> ConnectionForms:
    """omega[i][j](d_k) = theta^j(nabla_k e_i) = sum_a Theta[j][a] (nabla_k e_i)^a."""
    n, theta, e = f.dim, f.coframe_entries, f.frame_entries
    table = []
    for i in range(n):
        nablas = [levi_civita_derivative(f.metric, [e[a][i] for a in range(n)], k) for k in range(n)]
        table.append(tuple(
            OneForm(f.chart, tuple(_sum(mul(theta[j][a], v[a]) for a in range(n)) for v in nablas))
            for j in range(n)
        ))
    return ConnectionForms(f, tuple(table))


def structure_forms(
    omega1: OneForm, omega2: OneForm, phi: OneForm
) -> tuple[TwoForm, TwoForm]:
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
