"""Parallel transport, holonomy, and developing maps.

Transport integrates v' = -M(t) v along a chart curve with classical RK4 at
a fixed number of steps per parameter unit, where M is the action of the
chosen connection on component columns:

    "lc"      Levi-Civita on TM:        M[a][c] = Gamma^a_{kc} cdot^k
    "h", "s"  the bundle connections:   TM block as above, plus
              M[a][n] = cdot^a,  M[n][c] = +-(g cdot)_c,  M[n][n] = 0.

The developing map runs the inverse transport U' = +U M from the start of a
path and pushes the distinguished section through it: Phi = B U e_hat, with
B = blockdiag(coframe(base), 1) normalizing the base fiber so the pairing
becomes exactly diag(1,..,1,-1) ("h") or the Euclidean dot ("s").  The
coframe is that of the metric's own frame, orthonormal_frame(metric), which
the metric keeps in its memo; no entry point takes a frame.  Where the
chosen connection is flat, Phi lands on the quadric <v,v> = -1 (hyperboloid
upper sheet) or <v,v> = +1 (sphere) and is independent of the path; the
quadric residual and path_dependence() quantify both claims numerically.

There is one integrator, and it integrates a stack of m curves that share
t0, t1 and the step count at once, with state ``(m, size, size)``:
transport, holonomy and develop pass one curve, develop_cloud the segments
of up to GRID_CHUNK targets.  M depends on t and the curves only, never on
the state, so the integrator runs in blocks of steps: it evaluates M at a
block's distinct slope times first, stacked, and then steps the state
through the block with matrix products only.  A step's distinct times are
its node t_k, its midpoint t_k + h/2 (shared by k2 and k3) and its end
t_k + h, which also serves as node t_{k+1} when the two floats are equal
bit for bit.  A block has two slope points per step and curve, plus one per
curve for its first node.  A stack of m >= 2 curves takes GRID_CHUNK //
(2 m) steps per block (16 for a cloud chunk of 16 targets, 528 slope
points), so a cloud pays each block's fixed cost (one curve evaluation, the
chart check, the guards on g) once per 16 steps rather than once per step.
A single curve takes (STACK_MIN_POINTS - 1) // 2 = 15 steps per block, 31
slope points, below the cutoff where compiled evaluation switches from
point by point to stacked, so its blocks allocate no stack-sized
temporaries.  That keeps a long single path's memory down: blocks of 512
slope points raised the peak RSS growth of the benchmark's 768-step sphere3
develop (develop_sphere3_s) from about 5,700 to about 6,000 KiB, at no
clear gain in time.  Each block evaluates all its times and curves in one
call (positions from the curves' own expressions, never recomputed as
a + d t), then g and Gamma at all its points
(ChartMetric.metric_and_christoffel), which checks every point
against the chart box and g for singularity and positive definiteness,
raising at the first point that fails, before it evaluates Gamma.  A
block's times, in first-use order, and a cloud's chunk of targets are each
evaluated through metricspace.stacked_or_in_turn, so the error that escapes
is the one stepping slope by slope, target by target, meets first.  Every
stacked product is the per-curve product at each row, so results are
bit-identical to integrating the curves one at a time, slope by slope.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .cartan import orthonormal_frame
from .errors import DimensionError, NonClosedLoopError
from .exprlang import (
    STACK_MIN_POINTS,
    Const,
    Var,
    add,
    call,
    compile_expressions,
    differentiate,
    mul,
    variables_of,
)
from .metricspace import GRID_CHUNK, Chart, ChartMetric, stacked_or_in_turn
from .sasaki import fiber_pairing, variant_sign

__all__ = [
    "ChartCurve",
    "line_curve",
    "circle_curve",
    "CONNECTIONS",
    "CLOSURE_TOL",
    "closure_gap",
    "transport_matrix",
    "transport_trace",
    "parallel_transport",
    "holonomy",
    "DevelopedPath",
    "develop",
    "develop_cloud",
    "path_dependence",
    "quadric_pairing",
    "quadric_residual_of",
]

CONNECTIONS = ("h", "s", "lc")

_PARAM = "t"


@dataclass(frozen=True)
class ChartCurve:
    """A smooth curve given by expressions in the parameter t."""

    chart: Chart
    comps: tuple
    t0: float = 0.0
    t1: float = 1.0
    steps_per_unit: int = 256

    def __post_init__(self):
        object.__setattr__(self, "comps", tuple(self.comps))
        if len(self.comps) != self.chart.dim:
            raise DimensionError("one curve component per coordinate required")
        for component in self.comps:
            stray = variables_of(component) - {_PARAM}
            if stray:
                raise ValueError(f"curve components may only use 't', got {sorted(stray)}")
        if not self.t1 > self.t0:
            raise ValueError("curve needs t1 > t0")
        if self.steps_per_unit < 1:
            raise ValueError("steps_per_unit must be positive")

    @cached_property
    def _fn(self):
        velocity = tuple(differentiate(c, _PARAM) for c in self.comps)
        return compile_expressions((*self.comps, *velocity), (_PARAM,))

    def point_at(self, t: float) -> tuple:
        values = self._fn((float(t),))
        return self.chart.require(values[: self.chart.dim])

    def velocity_at(self, t: float) -> np.ndarray:
        values = self._fn((float(t),))
        return np.array(values[self.chart.dim :], dtype=float)

    @property
    def steps(self) -> int:
        return max(1, math.ceil(self.steps_per_unit * (self.t1 - self.t0)))


def line_curve(chart: Chart, start, end, steps_per_unit: int = 256) -> ChartCurve:
    """The straight chart segment from start to end, t in [0, 1]."""
    start = chart.require(start)
    end = chart.require(end)
    comps = tuple(
        add(Const(a), mul(Const(b - a), Var(_PARAM))) for a, b in zip(start, end)
    )
    return ChartCurve(chart, comps, 0.0, 1.0, steps_per_unit)


def circle_curve(chart: Chart, center, radius: float, steps_per_unit: int = 256) -> ChartCurve:
    """The counterclockwise chart circle of given center and radius, t in [0, 1]."""
    if chart.dim != 2:
        raise DimensionError("circle_curve is 2D-only")
    cx, cy = (float(v) for v in center)
    r = float(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    angle = mul(Const(2.0 * math.pi), Var(_PARAM))
    comps = (
        add(Const(cx), mul(Const(r), call("cos", angle))),
        add(Const(cy), mul(Const(r), call("sin", angle))),
    )
    return ChartCurve(chart, comps, 0.0, 1.0, steps_per_unit)


class _CurveStack:
    """Chart curves over one parameter interval with one step count,
    evaluated together: the integrator's view of one curve or of a cloud's
    segments."""

    def __init__(self, curves: Sequence[ChartCurve]):
        self.curves = tuple(curves)
        first = self.curves[0]
        self.chart, self.t0, self.t1, self.steps = first.chart, first.t0, first.t1, first.steps

    @cached_property
    def _fn(self):
        if len(self.curves) == 1:
            return self.curves[0]._fn
        comps = [c for curve in self.curves for c in curve.comps]
        velocity = [differentiate(c, _PARAM) for c in comps]
        return compile_expressions((*comps, *velocity), (_PARAM,))

    def at(self, times: Sequence[float]) -> np.ndarray:
        """Positions (``[:, 0]``) and velocities (``[:, 1]``) of every curve
        at each time, shape ``(T, 2, m, dim)``, from the curves' own
        arithmetic; positions are not yet checked against the chart."""
        values = self._fn(np.array(times, dtype=float).reshape(-1, 1))
        return values.reshape(len(times), 2, len(self.curves), self.chart.dim)


def _action_matrices(
    connection: str, metric: ChartMetric, points: np.ndarray, velocities: np.ndarray
) -> np.ndarray:
    m, n = velocities.shape
    g, gamma = metric.metric_and_christoffel(points)
    # tensordot(velocity, gamma, axes=(0, 1)) at each point, as one product
    by_velocity = gamma.transpose(0, 2, 1, 3).reshape(m, n, n * n)
    tangent_block = np.matmul(velocities[:, None, :], by_velocity).reshape(m, n, n)
    if connection == "lc":
        return tangent_block
    sign = variant_sign(connection)
    out = np.zeros((m, n + 1, n + 1))
    out[:, :n, :n] = tangent_block
    out[:, :n, n] = velocities
    out[:, n, :n] = sign * np.matmul(g, velocities[:, :, None])[:, :, 0]
    return out


def _fiber_size(connection: str, dim: int) -> int:
    if connection == "lc":
        return dim
    variant_sign(connection)
    return dim + 1


def _rk4_transport(
    connection: str,
    metric: ChartMetric,
    curves: _CurveStack,
    initial: np.ndarray,
    forward: bool,
    record: list | None = None,
) -> np.ndarray:
    """Integrate Y' = -M(t) Y (forward=True, transport) or Y' = +Y M(t)
    (forward=False, inverse transport used by the developing map) along
    every curve of the stack at once; ``initial``, the result and each
    recorded node have one leading row per curve.  The steps run in blocks
    (see the module docstring)."""
    m = len(curves.curves)

    def actions_at(times: list) -> np.ndarray:
        states = curves.at(times)
        points = states[:, 0].reshape(-1, curves.chart.dim)
        velocities = states[:, 1].reshape(-1, curves.chart.dim)
        actions = _action_matrices(connection, metric, points, velocities)
        return actions.reshape(len(times), m, *actions.shape[1:])

    def slope(action: np.ndarray, y: np.ndarray) -> np.ndarray:
        return -np.matmul(action, y) if forward else np.matmul(y, action)

    steps = curves.steps
    h = (curves.t1 - curves.t0) / steps
    half = 0.5 * h
    # a stack of curves takes about GRID_CHUNK slope points per block, two
    # per step and curve; a single curve stays below the stacked-evaluation
    # cutoff, where a long path's peak RSS stays lower (see the module
    # docstring for the measurement)
    block = max(1, (STACK_MIN_POINTS - 1) // 2 if m == 1 else GRID_CHUNK // (2 * m))
    y = np.array(initial, dtype=float)
    if record is not None:
        record.append(y.copy())
    end_time, end_action = None, None  # of the step before
    for first in range(0, steps, block):
        times: list[float] = []
        shares: list[bool] = []  # per step: its node is the step before's end
        for k in range(first, min(first + block, steps)):
            t = curves.t0 + k * h
            share = end_time is not None and t.hex() == end_time.hex()  # bit for bit
            if not share:
                times.append(t)
            times += (t + half, t + h)
            shares.append(share)
            end_time = t + h
        actions = iter(stacked_or_in_turn(actions_at, times))
        for share in shares:
            node = end_action if share else next(actions)
            mid, end_action = next(actions), next(actions)
            k1 = slope(node, y)
            k2 = slope(mid, y + half * k1)
            k3 = slope(mid, y + half * k2)
            k4 = slope(end_action, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if record is not None:
                record.append(y.copy())
    return y


def transport_matrix(connection: str, metric: ChartMetric, curve: ChartCurve) -> np.ndarray:
    """Columns are the transported fiber basis vectors, in coordinate
    components at the curve end (the tangent block) plus the e coefficient."""
    size = _fiber_size(connection, metric.dim)
    return _rk4_transport(connection, metric, _CurveStack((curve,)), np.eye(size)[None], True)[0]


def transport_trace(
    connection: str, metric: ChartMetric, curve: ChartCurve
) -> tuple[np.ndarray, np.ndarray]:
    """Node times and the running transport matrix at every integration
    node, shapes (steps+1,) and (steps+1, size, size)."""
    size = _fiber_size(connection, metric.dim)
    record: list = []
    _rk4_transport(connection, metric, _CurveStack((curve,)), np.eye(size)[None], True, record)
    times = np.linspace(curve.t0, curve.t1, curve.steps + 1)
    return times, np.array(record)[:, 0]


def parallel_transport(
    connection: str, metric: ChartMetric, curve: ChartCurve, initial: Sequence[float]
) -> np.ndarray:
    size = _fiber_size(connection, metric.dim)
    vector = np.asarray(initial, dtype=float)
    if vector.shape != (size,):
        raise DimensionError(f"initial vector must have {size} components for {connection!r}")
    column = vector[None, :, None]
    return _rk4_transport(connection, metric, _CurveStack((curve,)), column, True)[0, :, 0]


#: How far apart in chart coordinates a loop's endpoints may be.
CLOSURE_TOL = 1e-12


def closure_gap(curve: ChartCurve) -> float:
    """Max-abs gap between the curve's end and start in chart coordinates;
    the curve is a loop where this is at most CLOSURE_TOL."""
    start = np.array(curve.point_at(curve.t0))
    end = np.array(curve.point_at(curve.t1))
    return float(np.max(np.abs(end - start)))


def holonomy(connection: str, metric: ChartMetric, curve: ChartCurve) -> np.ndarray:
    """transport_matrix for a loop.  The curve must return to its start in
    chart coordinates; a latitude-style path whose endpoints are identified
    by the geometry but differ in the chart should go through
    transport_matrix directly."""
    gap = closure_gap(curve)
    if gap > CLOSURE_TOL:
        raise NonClosedLoopError(
            f"curve endpoints differ by {gap:.3e} in chart coordinates (tol {CLOSURE_TOL:g})"
        )
    return transport_matrix(connection, metric, curve)


def quadric_pairing(variant: str, u: Sequence[float], v: Sequence[float]) -> float:
    """The ambient pairing on developed vectors: Minkowski (last component
    negative) for "h", Euclidean for "s"."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return fiber_pairing(variant, float(u[:-1] @ v[:-1]), float(u[-1] * v[-1]))


def quadric_residual_of(variant: str, points: np.ndarray) -> float:
    """Max deviation of <v, v> from -1 ("h") or +1 ("s") over the rows, from
    a floor of 0.0: bit for bit ``max()`` over each row's ``quadric_pairing``
    with itself, as a row's tangent part is one row-times-column
    ``np.matmul``, the dot kernel of that pairing's ``@`` at the same
    strides.  A deviation that is not finite (NaN, which ``max()`` lets
    lose, or an overflow) replays the rows through ``max()`` one by one."""
    target = -1.0 if variant_sign(variant) > 0 else 1.0
    rows = np.atleast_2d(np.asarray(points, dtype=float))
    with np.errstate(all="ignore"):  # a non-finite deviation is replayed below, warnings and all
        tangent = np.matmul(rows[:, None, :-1], rows[:, :-1, None])[:, 0, 0]
        deviations = np.abs(fiber_pairing(variant, tangent, rows[:, -1] * rows[:, -1]) - target)
    worst = float(deviations.max(initial=0.0))
    if not worst < math.inf:
        worst = max([0.0, *(abs(quadric_pairing(variant, row, row) - target) for row in rows)])
    return worst


@dataclass(frozen=True)
class DevelopedPath:
    """The developing-map image of a path, one row per integration node."""

    variant: str
    points: np.ndarray

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]

    @property
    def quadric_residual(self) -> float:
        return quadric_residual_of(self.variant, self.points)


def _as_segments(path) -> tuple:
    segments = (path,) if isinstance(path, ChartCurve) else tuple(path)
    if not segments:
        raise ValueError("develop needs at least one curve segment")
    for previous, current in zip(segments, segments[1:]):
        gap = np.max(
            np.abs(
                np.array(previous.point_at(previous.t1))
                - np.array(current.point_at(current.t0))
            )
        )
        if gap > 1e-9:
            raise ValueError(f"path segments do not join (gap {gap:.3e})")
    return segments


def develop(variant: str, metric: ChartMetric, path) -> DevelopedPath:
    """Develop a path (a ChartCurve or a joined sequence of them) into the
    ambient space of the quadric, starting at (0,..,0,1) for the path start;
    the base fiber is normalized by the metric's orthonormal frame."""
    variant_sign(variant)
    segments = _as_segments(path)
    n = metric.dim
    base = segments[0].point_at(segments[0].t0)
    normalizer = np.eye(n + 1)
    normalizer[:n, :n] = orthonormal_frame(metric).coframe_at(base)
    rows: list[np.ndarray] = []
    u = np.eye(n + 1)[None]
    for index, segment in enumerate(segments):
        record: list = []
        u = _rk4_transport(variant, metric, _CurveStack((segment,)), u, False, record)
        if index > 0:
            record = record[1:]  # the join node is already recorded
        rows.extend(normalizer @ step[0][:, n] for step in record)
    return DevelopedPath(variant, np.array(rows))


def develop_cloud(
    variant: str,
    metric: ChartMetric,
    base: Sequence[float],
    targets: Sequence[Sequence[float]],
    steps_per_unit: int = 256,
) -> np.ndarray:
    """Developed images of many chart points, each reached from the base
    along the straight chart segment; one row per target, each equal to
    ``develop(variant, metric, segment).end``.  The segments of up to
    GRID_CHUNK targets are integrated together (see the module docstring)."""
    chart = metric.chart
    base = chart.require(base)

    def developed_ends(chunk: list) -> list:
        segments = [line_curve(chart, base, target, steps_per_unit) for target in chunk]
        return _developed_ends(variant, metric, segments)

    rows: list[np.ndarray] = []
    remaining = iter(targets)
    while chunk := list(itertools.islice(remaining, GRID_CHUNK)):
        rows.extend(stacked_or_in_turn(developed_ends, chunk))
    return np.array(rows)


def _developed_ends(variant: str, metric: ChartMetric, segments) -> list:
    """``develop(...).end`` of each single-segment path, the segments
    sharing one parameter interval and step count, integrated as one stack."""
    variant_sign(variant)
    n = metric.dim
    curves = _CurveStack(segments)
    # each segment's own start point, as develop takes it: 0 + d*t folds to
    # d*t, so a zero base coordinate starts at -0.0 where d < 0
    starts = metric.chart.require_stack(curves.at([curves.t0])[0, 0])
    identities = np.tile(np.eye(n + 1), (len(segments), 1, 1))
    normalizers = identities.copy()
    normalizers[:, :n, :n] = orthonormal_frame(metric).coframe_at(starts)
    ends = _rk4_transport(variant, metric, curves, identities, False)
    return [normalizer @ u[:, n] for normalizer, u in zip(normalizers, ends)]


def path_dependence(
    variant: str,
    metric: ChartMetric,
    base: Sequence[float],
    target: Sequence[float],
    via: Sequence[float],
) -> float:
    """Max-abs gap between developing straight to the target and via a
    waypoint.  Near zero exactly when the variant's connection is flat."""
    chart = metric.chart
    direct = develop(variant, metric, line_curve(chart, base, target))
    detour = develop(
        variant, metric, (line_curve(chart, base, via), line_curve(chart, via, target))
    )
    return float(np.max(np.abs(direct.end - detour.end)))
