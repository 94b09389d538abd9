"""Lie-algebra-valued connection forms on TM + (trivial line bundle).

Given an orthonormal frame e_1..e_n with coframe omega^1..omega^n and
connection forms omega_i^j, the extended bundle carries two natural
connections, written as one-forms with (n+1) x (n+1) matrix coefficients
(cartan.OneForm) in the column convention  nabla E_j = sum_i A[i][j] E_i
(E_1..E_n the frame, E_{n+1} the distinguished unit section):

    A[i][j] = omega_j^i            (tangent block)
    A[i][n] = omega^i              (last column)
    A[n][j] = +omega^j  (variant "h")   or   -omega^j  (variant "s")

The "h" matrix is so(n,1)-valued (A^T eta + eta A = 0 with
eta = diag(1,..,1,-1)); the "s" matrix is so(n+1)-valued (antisymmetric).
Curvature is Omega = dA + A ^ A, from cartan's exterior_derivative and
wedge, the same two that act on scalar forms; MatrixOneForm and
MatrixTwoForm are other names of cartan.OneForm and cartan.TwoForm.

For n = 2 the same connections can be written in a three-generator basis,

    A = m_1 omega^1 + m_2 omega^2 + m_3 phi,

with (m_1, m_2, m_3) one of the bases below, and the curvature splits as

    Omega = m_1 (d omega^1 - omega^2 ^ phi)
          + m_2 (d omega^2 + omega^1 ^ phi)
          + m_3 (d phi + s * omega^1 ^ omega^2)   where [m_1, m_2] = s m_3.

The first two coefficients vanish by the structure equations, so flatness
reduces to the third: "h" (where [m_1, m_2] = +m_3) is flat exactly when
the Gauss curvature is -1, and "s" (where [m_1, m_2] = -m_3) exactly when
it is +1.

Residual convention: flatness_scan reports Omega evaluated on orthonormal
frame pairs (e_a, e_b), not on coordinate pairs, so the number is gauge
invariant and for constant curvature c equals |c + 1| ("h") or |c - 1|
("s") in every chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cartan import (
    FrameField,
    OneForm,
    TwoForm,
    _sum,
    exterior_derivative,
    orthonormal_frame,
    wedge,
)
from .errors import DimensionError
from .exprlang import Const, add, mul
from .metricspace import Chart, ChartMetric, cached_on_metric, elementwise, grid_scan, worst_point

__all__ = [
    "LieBasis",
    "sl2_basis",
    "so21_basis",
    "so3_basis",
    "lie_basis",
    "basis_coefficients",
    "commutator",
    "MatrixOneForm",
    "MatrixTwoForm",
    "basis_form",
    "sasaki_form",
    "connection_matrix",
    "curvature_form",
    "FlatnessReport",
    "flatness_scan",
    "variant_sign",
    "fiber_pairing",
]


def _frozen(rows) -> np.ndarray:
    out = np.array(rows, dtype=float)
    out.setflags(write=False)
    return out


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


@dataclass(frozen=True, eq=False)
class LieBasis:
    """An ordered basis (m_1, m_2, m_3) of a three-dimensional matrix Lie
    algebra.  Brackets are computed, never hard-coded, so the tabulated
    structure constants in the tests act as an independent check."""

    name: str
    matrices: tuple[np.ndarray, ...]

    @property
    def size(self) -> int:
        return self.matrices[0].shape[0]

    def bracket(self, i: int, j: int) -> np.ndarray:
        return commutator(self.matrices[i], self.matrices[j])

    def structure_constants(self) -> np.ndarray:
        """c[i][j][k] with [m_i, m_j] = sum_k c[i][j][k] m_k."""
        count = len(self.matrices)
        table = np.zeros((count, count, count))
        for i in range(count):
            for j in range(count):
                coeffs, residual = basis_coefficients(self.bracket(i, j), self)
                if residual > 1e-12:
                    raise ValueError(f"basis {self.name!r} is not closed under brackets")
                table[i][j] = coeffs
        return table


def sl2_basis() -> LieBasis:
    """Traceless 2x2 generators with [m1,m2]=m3, [m2,m3]=-m1, [m3,m1]=-m2."""
    return LieBasis(
        "sl2",
        (
            _frozen([[0.0, -0.5], [-0.5, 0.0]]),
            _frozen([[0.5, 0.0], [0.0, -0.5]]),
            _frozen([[0.0, 0.5], [-0.5, 0.0]]),
        ),
    )


def so21_basis() -> LieBasis:
    """Lorentz generators (eta = diag(1,1,-1)) with the same structure
    constants as sl2_basis: [m1,m2]=m3, [m2,m3]=-m1, [m3,m1]=-m2."""
    return LieBasis(
        "so21",
        (
            _frozen([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            _frozen([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
            _frozen([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        ),
    )


def so3_basis() -> LieBasis:
    """Rotation generators with [m1,m2]=-m3, [m2,m3]=-m1, [m3,m1]=-m2.
    Only the first bracket's sign differs from so21_basis; that one sign
    is what moves the flat locus from curvature -1 to +1."""
    return LieBasis(
        "so3",
        (
            _frozen([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
            _frozen([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]]),
            _frozen([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        ),
    )


_BASIS_BUILDERS = {"sl2": sl2_basis, "so21": so21_basis, "so3": so3_basis}


def lie_basis(name: str) -> LieBasis:
    try:
        return _BASIS_BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown basis {name!r}; expected one of 'sl2', 'so21', 'so3'") from None


def basis_coefficients(value: np.ndarray, basis: LieBasis) -> tuple[np.ndarray, float]:
    """Least-squares coefficients of `value` in the basis, plus the max-abs
    distance of `value` from the basis span (0 iff value lies in the algebra)."""
    stacked = np.stack([m.ravel() for m in basis.matrices], axis=1)
    target = np.asarray(value, dtype=float).ravel()
    coeffs, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    residual = float(np.max(np.abs(stacked @ coeffs - target)))
    return coeffs, residual


# the matrix-valued forms are the forms with matrix coefficients
MatrixOneForm, MatrixTwoForm = OneForm, TwoForm


def variant_sign(variant: str) -> float:
    """+1 for the so(n,1) connection, -1 for the so(n+1) one."""
    if variant == "h":
        return 1.0
    if variant == "s":
        return -1.0
    raise ValueError(f"unknown variant {variant!r}; expected 'h' or 's'")


def fiber_pairing(variant: str, tangent, fiber):
    """The pairing of two sections from its tangent part g(xi, eta) and its
    fiber part f k, numbers or expressions: tangent - fiber for "h" (the
    Minkowski pairing), tangent + fiber for "s" (the Euclidean one)."""
    return tangent - fiber if variant_sign(variant) > 0 else tangent + fiber


def basis_form(chart: Chart, forms: Sequence[OneForm], basis: LieBasis) -> OneForm:
    """The matrix one-form sum_m basis.matrices[m] forms[m]."""
    size = range(basis.size)

    def entry(k: int, a: int, b: int):
        terms = zip(basis.matrices, forms)
        return _sum(mul(Const(float(m[a][b])), form.comps[k]) for m, form in terms)

    comps = (tuple(tuple(entry(k, a, b) for b in size) for a in size) for k in range(chart.dim))
    return OneForm(chart, tuple(comps))


def sasaki_form(frame: FrameField, basis: LieBasis) -> OneForm:
    """The n=2 connection written in a three-generator basis:
    A = m_1 omega^1 + m_2 omega^2 + m_3 phi."""
    if frame.dim != 2:
        raise DimensionError("the three-generator form of the connection is 2D-only")
    forms = (
        frame.coframe_form(0),
        frame.coframe_form(1),
        frame.connection.omega[1][0],
    )
    return basis_form(frame.chart, forms, basis)


def connection_matrix(frame: FrameField, variant: str) -> OneForm:
    """The (n+1) x (n+1) connection matrix in the column convention
    nabla E_j = sum_i A[i][j] E_i (see the module docstring for the layout)."""
    sign = variant_sign(variant)
    n = frame.dim
    omega = frame.connection.omega
    comps = []
    for k in range(n):
        mat = [[Const(0.0)] * (n + 1) for _ in range(n + 1)]
        for i in range(n):
            for j in range(n):
                mat[i][j] = omega[j][i].comps[k]
        for i in range(n):
            coframe_comp = frame.coframe_form(i).comps[k]
            mat[i][n] = coframe_comp
            mat[n][i] = mul(Const(sign), coframe_comp)
        comps.append(tuple(tuple(row) for row in mat))
    return OneForm(frame.chart, tuple(comps))


def curvature_form(a_form: OneForm) -> TwoForm:
    """Omega = dA + A ^ A, built from its upper coefficients
    (dA)_ij + (A ^ A)_ij, i < j."""
    d, w = exterior_derivative(a_form), wedge(a_form, a_form)
    n = a_form.chart.dim
    upper = {
        (i, j): elementwise(add, d.comps[i][j], w.comps[i][j])
        for i in range(n)
        for j in range(i + 1, n)
    }
    return TwoForm.from_upper(a_form.chart, upper, zero=d.comps[0][0])  # dA's zero diagonal


@dataclass(frozen=True)
class FlatnessReport:
    variant: str
    resolution: int
    points: int
    max_residual: float
    argmax_point: tuple[float, ...]


@cached_on_metric(maxsize=2, metric_arg=0)
def _curvature_of(metric: ChartMetric, variant: str) -> TwoForm:
    """The curvature of the variant's connection built on the metric's
    frame, built on first request and kept in ``metric.memo``, so its
    array compiles once per metric and variant."""
    return curvature_form(connection_matrix(orthonormal_frame(metric), variant))


def _on_frame_pair(coefficient: np.ndarray, frame_matrix: np.ndarray, a: int, b: int):
    """Omega(e_a, e_b) at each point of a stack, from Omega's coordinate
    coefficients ``(m, n, n, size, size)`` and the frames ``(m, n, n)``
    (columns are the frame vectors): one pair, where a scan reads only the
    pairs a < b of the n^2."""
    return np.einsum("mklij,mk,ml->mij", coefficient, frame_matrix[:, :, a], frame_matrix[:, :, b])


def flatness_scan(
    metric: ChartMetric,
    variant: str,
    resolution: int = 20,
) -> FlatnessReport:
    """Scan the chart's inner grid and report the largest curvature entry of
    the chosen connection, measured on pairs of the metric's orthonormal
    frame (``orthonormal_frame(metric)``), and its point (``worst_point``).
    The metric must be positive definite at every grid point;
    SingularMetricError names the first where it is not.
    """
    frame = orthonormal_frame(metric)
    omega_form = _curvature_of(metric, variant)
    n = metric.dim
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]

    def residuals(points: np.ndarray) -> np.ndarray:
        metric.definite_metric_at(points)
        frame_matrix = frame.frame_at(points)
        coefficient = omega_form.at(points)
        worst = np.zeros(len(points))
        for a, b in pairs:
            block = np.abs(_on_frame_pair(coefficient, frame_matrix, a, b)).max(axis=(1, 2))
            worst = np.where(block > worst, block, worst)  # as max(): NaN loses
        return worst

    worst, point, count = worst_point(grid_scan(metric.chart, resolution, residuals))
    return FlatnessReport(variant, resolution, count, worst, point)
