"""Riemannian metrics on coordinate charts.

A :class:`Chart` is a box of coordinates; an :class:`ExprArray` is a fixed
array of expressions over one, compiled once for numeric evaluation; a
:class:`ChartMetric` is a symmetric positive-definite matrix of expressions
over a chart.  Christoffel symbols and the Riemann tensor are assembled
symbolically (the inverse metric enters as adjugate/determinant, so
derivatives are exact), then compiled once per metric.

Point queries take one point, or an ``(m, dim)`` array ("a stack") of points
and then return arrays with a leading axis of length m, bit-identical to m
single-point queries.  All but ``metric_at`` read a :class:`Geometry`, which
guards g, nonsingular and then positive definite, before it returns g, Gamma
or R.  Grid scans evaluate chunks of at most :data:`GRID_CHUNK` grid points
at a time (:func:`grid_scan`); each chunk is built as an array from the
chart's axes by flat grid index, the same floats in the same row-major order
as :meth:`Chart.grid`, and :func:`worst_point` reduces it with array
operations.  Index conventions:

    christoffel(p)[k, i, j] = Gamma^k_ij
    riemann(p)[l, k, i, j]  = R^l_kij,  meaning  R(d_i, d_j) d_k = R^l_kij d_l

with R^l_kij = d_i Gamma^l_jk - d_j Gamma^l_ik
             + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    CartanflatError,
    ChartDomainError,
    DimensionError,
    ExpressionDomainError,
    SingularMetricError,
)
from .exprlang import (
    Const,
    Expression,
    Unary,
    Var,
    add,
    compile_expressions,
    differentiate,
    mul,
    neg,
    parse,
    sub,
    variables_of,
)

__all__ = [
    "GRID_CHUNK",
    "PD_CHECK_RESOLUTION",
    "Chart",
    "grid_scan",
    "stacked_or_in_turn",
    "worst_point",
    "ExprArray",
    "elementwise",
    "ChartMetric",
    "Geometry",
    "cached_on_metric",
    "constant_curvature_tensor",
    "constant_curvature_action",
    "symbolic_determinant",
    "symbolic_inverse",
]

_DET_RTOL = 1e-12  # relative determinant threshold for "singular here"
_PD_MIN_EIGENVALUE = 1e-10

#: Grid resolution of the positive-definiteness check at construction; the
#: scans check again at every point they evaluate.
PD_CHECK_RESOLUTION = 4

#: Grid points per chunk of a grid scan.  A scan reduces each chunk before it
#: takes the next, so its memory stays that of one chunk's arrays.
GRID_CHUNK = 512

# what a point query raises when its input or its geometry is bad there
_POINT_ERRORS = (CartanflatError, ArithmeticError, ValueError)


def _nth_point(points, k: int):
    """Point k of a stack as Python floats (numpy 2 would print them as
    ``np.float64(...)`` in messages), or a single point as given."""
    if isinstance(points, np.ndarray) and points.ndim == 2:
        return tuple(points[k].tolist())
    return points


@dataclass(frozen=True)
class Chart:
    """A coordinate box.  ``margin`` is the fraction of each interval excluded
    from both ends when sampling (grids and random draws stay off the walls,
    where presets tend to degenerate)."""

    names: tuple[str, ...]
    box: tuple[tuple[float, float], ...]
    margin: float = 0.05

    def __post_init__(self):
        names = tuple(self.names)
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "box", box)
        if len(names) != len(box):
            raise ValueError("one interval per coordinate name required")
        if len(set(names)) != len(names):
            raise ValueError("coordinate names must be distinct")
        if not names:
            raise ValueError("charts need at least one coordinate")
        for name, (lo, hi) in zip(names, box):
            if not (lo < hi):
                raise ValueError(f"empty interval for {name!r}: [{lo}, {hi}]")
        if not (0.0 <= self.margin < 0.5):
            raise ValueError("margin must lie in [0, 0.5)")

    @property
    def dim(self) -> int:
        return len(self.names)

    def contains(self, point: Sequence[float]) -> bool:
        if len(point) != self.dim:
            return False
        return all(lo <= x <= hi for x, (lo, hi) in zip(point, self.box))

    def require(self, point: Sequence[float]) -> tuple[float, ...]:
        point = tuple(float(x) for x in point)
        if not self.contains(point):
            raise ChartDomainError(f"point {point} outside chart box {self.box}")
        return point

    def require_stack(self, points: np.ndarray) -> np.ndarray:
        """An ``(m, dim)`` stack of points as a float array; raises
        ChartDomainError naming the first point outside the box."""
        points = np.asarray(points, dtype=float)
        if len(points) and not self._contains_stack(points):
            for row in points.tolist():
                self.require(row)  # raises at the first point outside
        return points

    def require_points(self, points) -> tuple[float, ...] | np.ndarray:
        """``require_stack`` of an ``(m, dim)`` array, else ``require``."""
        if isinstance(points, np.ndarray) and points.ndim == 2:
            return self.require_stack(points)
        return self.require(points)

    def _contains_stack(self, points: np.ndarray) -> bool:
        """Whether every point of a stack lies in the box (False on NaN)."""
        if points.ndim != 2 or points.shape[1] != self.dim:
            return False
        lows, highs = points.min(axis=0).tolist(), points.max(axis=0).tolist()
        return all(lo <= a and b <= hi for (lo, hi), a, b in zip(self.box, lows, highs))

    def inner_box(self) -> tuple[tuple[float, float], ...]:
        out = []
        for lo, hi in self.box:
            pad = self.margin * (hi - lo)
            out.append((lo + pad, hi - pad))
        return tuple(out)

    def axes(self, resolution: int) -> list[np.ndarray]:
        if resolution < 2:
            raise ValueError("grid resolution must be at least 2")
        return [np.linspace(lo, hi, resolution) for lo, hi in self.inner_box()]

    def grid(self, resolution: int) -> Iterator[tuple[float, ...]]:
        """Row-major sweep (last coordinate fastest), the point order of
        :func:`worst_point`."""
        return itertools.product(*(axis.tolist() for axis in self.axes(resolution)))

    def random_points(self, rng: np.random.Generator, count: int) -> list[tuple[float, ...]]:
        inner = self.inner_box()
        return [
            tuple(float(rng.uniform(lo, hi)) for lo, hi in inner) for _ in range(count)
        ]


def stacked_or_in_turn(evaluate, items):
    """``evaluate(items)``, or, where that raises, ``evaluate`` of each item
    alone, in order, concatenated.

    ``evaluate`` maps a sequence of items to one leading row per item.  A
    stacked evaluation finishes each stage at every item before the next
    stage, so the error it raises need not be the first one met item by
    item; replaying the items in turn makes the error that escapes the one
    evaluating them one at a time meets first."""
    try:
        return evaluate(items)
    except _POINT_ERRORS:
        return np.concatenate([evaluate(items[k : k + 1]) for k in range(len(items))])


def worst_point(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]],
) -> tuple[float, tuple[float, ...] | None, int]:
    """``(worst, point, count)`` over ``(points, values)`` chunks with one
    value per point: the largest value, the first point that has it, and
    the number of points.  Values compare as ``max()`` would in point order
    (ties keep the earlier point, NaN never wins) against a floor of -1.0,
    where the point is None."""
    worst, where, count = -1.0, None, 0
    for points, values in chunks:
        count += len(points)
        if not len(values):
            continue
        k = int(np.argmax(values))
        if values[k] != values[k]:  # argmax picks a NaN first; as in max(), none wins
            values = np.where(values == values, values, -math.inf)
            k = int(np.argmax(values))
        if values[k] > worst:
            worst, where = float(values[k]), tuple(points[k].tolist())
    return worst, where, count


def grid_scan(chart: Chart, resolution: int, evaluate) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(points, evaluate(points))`` for each chunk of the chart's grid,
    evaluated by :func:`stacked_or_in_turn`.  ``evaluate`` maps a stack of
    points to an array with one leading row per point.  An
    ExpressionDomainError met at one point is raised again naming it.

    Each chunk is indexed straight out of ``chart.axes(resolution)``,
    row-major, so its rows are the floats of :meth:`Chart.grid`, in its
    order, with no tuple built per point."""

    def at_named_point(points: np.ndarray) -> np.ndarray:
        try:
            return evaluate(points)
        except ExpressionDomainError as exc:
            if len(points) != 1 or exc.point is not None:
                raise
            raise ExpressionDomainError(str(exc), point=_nth_point(points, 0)) from exc

    axes = chart.axes(resolution)
    shape = (resolution,) * chart.dim
    total = resolution**chart.dim
    for start in range(0, total, GRID_CHUNK):
        indices = np.unravel_index(np.arange(start, min(start + GRID_CHUNK, total)), shape)
        points = np.column_stack([axis[index] for axis, index in zip(axes, indices)])
        yield points, stacked_or_in_turn(at_named_point, points)


def _nest(entries) -> tuple:
    """(entries as nested tuples, their shape); ragged nesting raises."""
    if isinstance(entries, Expression):
        return entries, ()
    if not isinstance(entries, (tuple, list)):
        raise TypeError(f"array entries must be expressions, got {type(entries).__name__}")
    parts = [_nest(item) for item in entries]
    shapes = {shape for _, shape in parts}
    if len(shapes) > 1:
        raise DimensionError(f"ragged expression array: sub-arrays of shapes {sorted(shapes)}")
    inner = shapes.pop() if shapes else ()
    return tuple(item for item, _ in parts), (len(parts), *inner)


def _leaves(entries) -> Iterator[Expression]:
    if isinstance(entries, Expression):
        yield entries
    else:
        for item in entries:
            yield from _leaves(item)


def elementwise(fn, *arrays):
    """``fn`` applied entry by entry across equally nested arrays of expressions."""
    if isinstance(arrays[0], Expression):
        return fn(*arrays)
    return tuple(elementwise(fn, *items) for items in zip(*arrays))


class ExprArray:
    """A fixed array of expressions over a chart.

    ``comps`` holds the entries as nested tuples (``comps[k][a][b]``) and
    ``shape`` their nesting.  All entries compile together, once, on first
    evaluation.  Arrays compare and hash by identity, like the interned
    expressions they hold."""

    def __init__(self, chart: Chart, entries):
        self.chart = chart
        self.comps, self.shape = _nest(entries)

    @cached_property
    def _fn(self):
        return compile_expressions(list(_leaves(self.comps)), self.chart.names)

    def at(self, point) -> np.ndarray:
        """Every entry at a point, as an array of ``shape``; at a stack of m
        points, an array of ``(m, *shape)``."""
        return self.at_checked(self.chart.require_points(point))

    def at_checked(self, points) -> np.ndarray:
        """``at`` for a point (a tuple of floats) or a float stack the chart
        has already accepted."""
        if isinstance(points, tuple):
            return np.array(self._fn(points), dtype=float).reshape(self.shape)
        return self._fn(points).reshape(len(points), *self.shape)


def _as_expression(entry, names: tuple[str, ...]) -> Expression:
    if isinstance(entry, Expression):
        return entry
    if isinstance(entry, str):
        return parse(entry, names)
    if isinstance(entry, (int, float)):
        return Const(float(entry))
    raise TypeError(f"metric entries must be expressions, text, or numbers, got {type(entry)!r}")


def _same_but_zero_signs(a: Expression, b: Expression) -> bool:
    """Equal in structure, with constants compared by value: entries that
    differ only in the sign of a zero count as symmetric.  One walk over
    pairs of nodes, each pair of a shared subexpression compared once."""
    pending, seen = [(a, b)], set()
    while pending:
        a, b = pending.pop()
        if a is b or (id(a), id(b)) in seen:
            continue
        seen.add((id(a), id(b)))
        if type(a) is not type(b) or isinstance(a, Var):
            return False
        if not (a.value == b.value if isinstance(a, Const) else a.op == b.op):
            return False
        if isinstance(a, Unary):
            pending.append((a.operand, b.operand))
        elif not isinstance(a, Const):
            pending += ((a.right, b.right), (a.left, b.left))
    return True


def symbolic_determinant(matrix: Sequence[Sequence[Expression]]) -> Expression:
    """Laplace expansion along the first row; zero entries prune themselves."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total: Expression = Const(0.0)
    for j in range(n):
        minor = [
            [matrix[r][c] for c in range(n) if c != j] for r in range(1, n)
        ]
        term = mul(matrix[0][j], symbolic_determinant(minor))
        total = add(total, term) if j % 2 == 0 else sub(total, term)
    return total


def symbolic_inverse(matrix: Sequence[Sequence[Expression]]) -> list[list[Expression]]:
    """Adjugate over determinant.  Fine for the n <= 3 charts this package
    targets; the numeric route (LU) is separate and used for point queries."""
    n = len(matrix)
    det = symbolic_determinant(matrix)
    if n == 1:
        return [[Const(1.0) / det]]
    inverse = [[Const(0.0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [matrix[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            cof = symbolic_determinant(minor)
            if (i + j) % 2 == 1:
                cof = neg(cof)
            inverse[i][j] = cof / det
    return inverse


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int


def cached_on_metric(maxsize: int, metric_arg: int = 1):
    """Cache a function in the ``memo`` of the metric it takes as positional
    argument ``metric_arg``, keyed on its other arguments, least recently
    used out first past ``maxsize`` entries per metric, so each entry lives
    exactly as long as the metric it describes.  ``cache_info()`` counts
    hits and misses over all metrics."""

    def decorate(fn):
        hits = misses = 0

        @functools.wraps(fn)
        def cached(*args):
            nonlocal hits, misses
            metric = args[metric_arg]
            memo = metric.memo.setdefault(fn.__name__, OrderedDict())
            key = args[:metric_arg] + args[metric_arg + 1 :]
            if key in memo:
                hits += 1
                memo.move_to_end(key)
                return memo[key]
            misses += 1
            value = memo[key] = fn(*args)
            if len(memo) > maxsize:
                memo.popitem(last=False)
            return value

        cached.cache_info = lambda: _CacheInfo(hits, misses, maxsize)
        return cached

    return decorate


class ChartMetric:
    """Immutable by contract: entries are fixed at construction, everything
    else is derived lazily and cached."""

    def __init__(self, chart: Chart, entries):
        self.chart = chart
        n = chart.dim
        rows = list(entries)
        if len(rows) != n or any(len(list(r)) != n for r in rows):
            raise DimensionError(f"metric must be {n}x{n} for this chart")
        g = tuple(
            tuple(_as_expression(entry, chart.names) for entry in row) for row in rows
        )
        if variables_of(*itertools.chain(*g)) - set(chart.names):
            for i in range(n):  # name the first entry that has strays
                for j in range(n):
                    extra = variables_of(g[i][j]) - set(chart.names)
                    if extra:
                        raise ValueError(
                            f"metric entry ({i},{j}) uses undeclared variables {sorted(extra)}"
                        )
        for i in range(n):
            for j in range(i + 1, n):
                if not _same_but_zero_signs(g[i][j], g[j][i]):
                    raise ValueError(f"metric entries ({i},{j}) and ({j},{i}) differ")
        self.entries = g
        self._check_positive_definite()

    # -- construction-time sanity ------------------------------------------

    def _check_positive_definite(self):
        for _ in grid_scan(self.chart, PD_CHECK_RESOLUTION, self.definite_metric_at):
            pass

    # -- symbolic layers ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.chart.dim

    @cached_property
    def memo(self) -> dict:
        """Results other modules derive from this metric, one table per
        function decorated with :func:`cached_on_metric` (its orthonormal
        frame, the curvature of each connection, covariant derivatives,
        seeded sections, compatibility residuals); they live exactly as long
        as the metric."""
        return {}

    @cached_property
    def _dg(self) -> tuple:
        """_dg[a][i][j] = d g_ij / d x_a."""
        names = self.chart.names
        return tuple(
            tuple(tuple(differentiate(self.entries[i][j], a) for j in range(self.dim)) for i in range(self.dim))
            for a in names
        )

    @cached_property
    def inverse_entries(self) -> tuple:
        inv = symbolic_inverse([list(row) for row in self.entries])
        return tuple(tuple(row) for row in inv)

    @cached_property
    def christoffel_entries(self) -> tuple:
        """christoffel_entries[k][i][j] = Gamma^k_ij, shared across (i,j)/(j,i)."""
        n = self.dim
        ginv = self.inverse_entries
        dg = self._dg
        gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    total: Expression = Const(0.0)
                    for l in range(n):
                        bracket = sub(add(dg[i][j][l], dg[j][i][l]), dg[l][i][j])
                        total = add(total, mul(ginv[k][l], bracket))
                    value = mul(Const(0.5), total)
                    gamma[k][i][j] = value
                    gamma[k][j][i] = value
        return tuple(tuple(tuple(row) for row in plane) for plane in gamma)

    @cached_property
    def riemann_entries(self) -> tuple:
        """riemann_entries[l][k][i][j] = R^l_kij."""
        n = self.dim
        names = self.chart.names
        gamma = self.christoffel_entries
        dgamma = [
            [
                [[differentiate(gamma[l][i][k], names[a]) for k in range(n)] for i in range(n)]
                for l in range(n)
            ]
            for a in range(n)
        ]
        out = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for l in range(n):
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        term = sub(dgamma[i][l][j][k], dgamma[j][l][i][k])
                        for m in range(n):
                            term = add(term, mul(gamma[l][i][m], gamma[m][j][k]))
                            term = sub(term, mul(gamma[l][j][m], gamma[m][i][k]))
                        out[l][k][i][j] = term
        return tuple(
            tuple(tuple(tuple(row) for row in plane) for plane in block) for block in out
        )

    # -- compiled evaluators --------------------------------------------------

    @cached_property
    def _g(self) -> ExprArray:
        return ExprArray(self.chart, self.entries)

    @cached_property
    def _gamma(self) -> ExprArray:
        return ExprArray(self.chart, self.christoffel_entries)

    @cached_property
    def _riemann(self) -> ExprArray:
        return ExprArray(self.chart, self.riemann_entries)

    # -- numeric API -----------------------------------------------------------

    def metric_at(self, point) -> np.ndarray:
        return self._g.at(point)

    def geometry(self, points) -> Geometry:
        """g, Gamma and R at a point or a stack, behind one guard on g."""
        return Geometry(self, points)

    def definite_metric_at(self, point) -> np.ndarray:
        """metric_at, checked nonsingular and then positive definite at the point
        (at every point of a stack); raises SingularMetricError at the first that fails."""
        return self.geometry(point).g

    def inverse_at(self, point) -> np.ndarray:
        return np.linalg.inv(self.geometry(point).g)

    def christoffel(self, point) -> np.ndarray:
        return self.geometry(point).gamma

    def riemann(self, point) -> np.ndarray:
        return self.geometry(point).riemann

    def sectional_curvature(self, point: Sequence[float], plane: tuple[int, int] = (0, 1)) -> float:
        if isinstance(point, np.ndarray) and point.ndim == 2:
            raise DimensionError("sectional_curvature takes one point; use sectional_curvatures for a stack")
        return self.geometry(point).sectional([plane])[0, 0]

    def sectional_curvatures(self, points: np.ndarray, planes) -> np.ndarray:
        """Sectional curvature in each coordinate plane (columns) at each point
        of a stack (rows); bit for bit ``sectional_curvature``'s: numerators run
        ``np.dot``'s BLAS kernel at its strides (row-times-column ``np.matmul``;
        einsum would not)."""
        return self.geometry(points).sectional(planes)


class Geometry:
    """``g``, Christoffel symbols ``gamma`` and Riemann tensor ``riemann`` at
    a point or an ``(m, dim)`` stack, each evaluated once, on first read.  The
    points meet the chart check once, here; the first read evaluates g and
    guards it (:func:`_check_metric`), so Gamma and R are read only where g is
    Riemannian.  Nothing the instance holds refers back to it, so its arrays
    are freed with it, without waiting for the garbage collector."""

    def __init__(self, metric: ChartMetric, points):
        self.metric = metric
        self.points = metric.chart.require_points(points)

    @cached_property
    def g(self) -> np.ndarray:
        g = self.metric._g.at_checked(self.points)
        _check_metric(g, self.points)
        return g

    @cached_property
    def gamma(self) -> np.ndarray:
        self.g  # the guard first
        return self.metric._gamma.at_checked(self.points)

    @cached_property
    def riemann(self) -> np.ndarray:
        self.g  # the guard first
        return self.metric._riemann.at_checked(self.points)

    def sectional(self, planes) -> np.ndarray:
        """Sectional curvature in each coordinate plane (columns) at each
        point (rows; one row at a single point)."""
        for plane in planes:
            _check_plane(plane)
        n = self.metric.dim
        g, riemann = self.g.reshape(-1, n, n), self.riemann.reshape(-1, n, n, n, n)
        return _sectional(g, riemann, planes, self.points)


def _check_metric(g: np.ndarray, points):
    """Raise SingularMetricError at the first point where g, one matrix or a
    stack, is singular relative to its largest entry (or det g or that entry
    to the n-th power leaves the float range), else at the first where
    eigvalsh's lowest eigenvalue is at most 1e-10.  For n <= 3 closed-form
    leading minors (:func:`_certified`) pass most stacks without LAPACK, but
    only those both LAPACK routes provably pass; the routes decide every
    other, in that order, each in one decision over the whole stack that
    names its first failing point, so each decision, message and point is
    LAPACK's."""
    if not _certified(g):
        _nonsingular_by_lapack(g, points)
        _definite_by_lapack(g, points)


def _nonsingular_by_lapack(g: np.ndarray, points):
    n = g.shape[-1]
    stack = g.reshape(-1, n, n)
    scales = np.abs(stack).max(axis=(1, 2))
    with np.errstate(all="ignore"):  # a determinant that overflows is refused below
        dets = np.linalg.det(stack)
        # float_power is libm's pow, as float ** is; NaN fails both bounds
        volumes = np.float_power(np.maximum(scales, 1e-300), n)
        sizes = np.abs(dets)
        failing = np.flatnonzero(~((_DET_RTOL * volumes <= sizes) & (sizes < math.inf)))
    if len(failing):
        k = int(failing[0])
        finite = math.isfinite(dets[k]) and volumes[k] < math.inf
        message = "is singular to tolerance" if finite else "determinant is beyond the float range"
        raise SingularMetricError(f"metric {message}", point=_nth_point(points, k))


def _definite_by_lapack(g: np.ndarray, points):
    lowest = np.linalg.eigvalsh(g).min(axis=-1).reshape(-1)
    failing = np.flatnonzero(lowest <= _PD_MIN_EIGENVALUE)  # a NaN eigenvalue passes
    if len(failing):
        k = int(failing[0])
        raise SingularMetricError(
            f"metric is not positive definite (min eigenvalue {float(lowest[k]):.3e})",
            point=_nth_point(points, k),
        )


# The certificate passes a stack of n x n matrices, n <= 3, only where every
# g in it is symmetric, its largest entry s lies in _CERTIFIED_SCALES, and
# its leading principal minors d_k, computed in closed form, satisfy
#   (a)  d_k >= (1 + _DET_MARGIN) 1e-12 s^k            for k = 1..n,
#   (b)  d_n (n-1)^(n-1) >= (1 + _EIG_MARGIN) 1e-10 tr^(n-1),  tr = trace g.
# Why both LAPACK checks then pass (u = 2^-53; rounding bounds as in
# N. J. Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
# SIAM 2002, ch. 9 and 14):
# - Inside the window s^n and the thresholds are normal floats, and an
#   underflowing product adds an error far below u s^n.  Each minor is a
#   sum of at most three products of an entry and a 2 x 2 minor, so its
#   computed value is within 30 u s^k < 3.4e-15 s^k of d_k.  By (a) every
#   exact d_k >= 1.99e-12 s^k > 0: g is positive definite (Sylvester's
#   criterion) and det g >= 1.99e-12 s^n.
# - np.linalg.det: LU with partial pivoting is the exact LU of g + E,
#   |E| <= gamma_n n 2^(n-1) s entrywise (growth factor at most 2^(n-1)), so
#   by multilinearity over columns of norm at most sqrt(n) s,
#   |det(g + E) - det g| <= 6.3e-14 s^n for n <= 3.  numpy returns
#   sign * exp(sum log |U_ii|), here with |log |U_ii|| < 240, within 1e-12
#   relative of det(g + E).  So |det| >= 1.9e-12 s^n and finite: the
#   threshold 1e-12 max(s, 1e-300)^n passes with a factor 1.9 to spare.
# - np.linalg.eigvalsh: the other n - 1 eigenvalues' product is at most
#   (tr / (n-1))^(n-1) (AM-GM), so lambda_min >= d_n ((n-1) / tr)^(n-1),
#   and by (b) lambda_min >= 3.99e-10 (the trace and the products round by
#   a few u, d_n by under 0.2%).  By (a), ||g||_2 <= n s <= n^n lambda_min /
#   1.99e-12; eigvalsh returns the eigenvalues of some g + F with ||F||_2 <=
#   p(n) u ||g||_2 (backward stability), so by Weyl's inequality its lowest
#   is at least lambda_min (1 - 1.51e-3 p(n)) > 1e-10 for any p(n) < 490.
# Every other stack (n >= 4, an entry outside the window, NaN or infinite,
# anything near either threshold) goes to LAPACK.
_CERTIFIED_SCALES = (1e-90, 1e90)
_DET_MARGIN = 1.0  # (a): det g >= 1.99e-12 s^n; LAPACK errs by at most 6.3e-14 s^n
_EIG_MARGIN = 3.0  # (b): lambda_min >= 3.99e-10; eigvalsh may err by 74% of it
_CERTIFIED_DET = (1.0 + _DET_MARGIN) * _DET_RTOL
_CERTIFIED_EIGENVALUE = (1.0 + _EIG_MARGIN) * _PD_MIN_EIGENVALUE

# Below this many matrices the certificate runs on Python floats, one matrix
# at a time (about 2 us each), which costs less than numpy's per-call
# overhead on a stack's columns (about 40 us for any stack up to 512
# matrices).
_CERTIFY_STACK_MIN = 16


def _certified(g: np.ndarray) -> bool:
    """Whether every matrix of g, one or a stack, passes the certificate
    above, so that both LAPACK checks pass it."""
    n = g.shape[-1]
    if not 0 < n <= 3:
        return False
    passes = _MINORS_PASS[n]
    low, high = _CERTIFIED_SCALES
    flat = g.reshape(-1, n * n)
    if len(flat) < _CERTIFY_STACK_MIN:
        for entries in flat.tolist():
            # a NaN that max() skips makes the determinant, which every
            # entry enters, NaN, and NaN fails every comparison
            scale = max(map(abs, entries))
            if not (low <= scale <= high and passes(entries, scale)):
                return False
        return True
    columns = flat.T.copy()  # one contiguous row per entry
    scales = np.abs(columns).max(axis=0)
    if not (scales.min() >= low and scales.max() <= high):  # NaN fails too
        return False
    return bool(passes(columns, scales).all())


# (a), (b) and symmetry for one matrix, its entries row-major as floats and
# its largest entry s (a bool), or for a stack, its entries' columns and
# largest entries (a bool array); the same operations run in both cases.


def _minors_pass_1(a, s):
    (a0,) = a
    return (a0 >= _CERTIFIED_DET * s) & (a0 >= _CERTIFIED_EIGENVALUE)


def _minors_pass_2(a, s):
    a0, a1, a2, a3 = a
    det = a0 * a3 - a1 * a2
    return (
        (a1 == a2)
        & (a0 >= _CERTIFIED_DET * s)
        & (det >= _CERTIFIED_DET * (s * s))
        & (det >= _CERTIFIED_EIGENVALUE * (a0 + a3))
    )


def _minors_pass_3(a, s):
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    det = a0 * (a4 * a8 - a5 * a7) + a1 * (a5 * a6 - a3 * a8) + a2 * (a3 * a7 - a4 * a6)
    trace = a0 + a4 + a8
    square = s * s
    return (
        (a1 == a3)
        & (a2 == a6)
        & (a5 == a7)
        & (a0 >= _CERTIFIED_DET * s)
        & (a0 * a4 - a1 * a3 >= _CERTIFIED_DET * square)
        & (det >= _CERTIFIED_DET * (square * s))
        & (det * 4.0 >= _CERTIFIED_EIGENVALUE * (trace * trace))
    )


_MINORS_PASS = (None, _minors_pass_1, _minors_pass_2, _minors_pass_3)


def _check_plane(plane: tuple[int, int]):
    if plane[0] == plane[1]:
        raise ValueError("a plane needs two distinct coordinate directions")


def _sectional(g: np.ndarray, riemann: np.ndarray, planes, points) -> np.ndarray:
    """Each plane's sectional curvature (columns) at each point of a stack of
    g and R (rows), with g_ij^2 from libm's ``pow``, as a numpy scalar's; a
    value that overflows to inf or NaN is refused at the first such point."""
    numerators, denominators = np.empty((2, len(g), len(planes)))
    degenerate = np.zeros(len(g), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, (i, j) in enumerate(planes):
            np.matmul(g[:, None, :, i], riemann[:, :, j, i, j, None], out=numerators[:, c, None, None])
            products = g[:, i, i] * g[:, j, j]
            np.subtract(products, np.float_power(g[:, i, j], 2.0), out=denominators[:, c])
            degenerate |= np.abs(denominators[:, c]) < 1e-14 * np.maximum(1.0, np.abs(products))
        if degenerate.any():
            point = _nth_point(points, int(degenerate.argmax()))
            raise SingularMetricError("degenerate coordinate plane", point=point)
        values = numerators / denominators
        # a sum of finite values is finite unless it overflows
        summed = math.isfinite(np.add.reduce(values.ravel()))
        infinite = () if summed else np.flatnonzero(~(np.abs(values).max(axis=1) < math.inf))
    if len(infinite):
        point = _nth_point(points, int(infinite[0]))
        raise ExpressionDomainError("sectional curvature is not finite", point=point)
    return values


def constant_curvature_tensor(
    metric: ChartMetric,
    curvature: float,
    x: Sequence[float],
    y: Sequence[float],
    z: Sequence[float],
    point: Sequence[float],
) -> np.ndarray:
    """R_K(X, Y)Z = K (g(Y, Z) X - g(X, Z) Y), the model tensor of constant
    sectional curvature K, as coordinate components at ``point`` (a row per
    point of a stack)."""
    return constant_curvature_action(curvature, metric.definite_metric_at(point), x, y, z)


def constant_curvature_action(
    curvature: float, g: np.ndarray, x: Sequence[float], y: Sequence[float], z: Sequence[float]
) -> np.ndarray:
    """R_K(X, Y)Z from the value ``g`` of the metric at a point, or from a
    stack of g and vectors (rows, or one for all), pairing as ``(y @ g) @ z``."""
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    yz = (y[..., None, :] @ g) @ z[..., :, None]
    xz = (x[..., None, :] @ g) @ z[..., :, None]
    return curvature * (yz[..., 0] * x - xz[..., 0] * y)
