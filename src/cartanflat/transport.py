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

One integrator integrates a stack of m curves that share t0, t1 and the
step count at once, with state ``(m, size, size)``: transport, holonomy and
develop pass one curve, develop_cloud the segments of up to GRID_CHUNK
targets.  M depends on t and the curves only, so an RK4 step is Y -> P Y
(forward) or Y -> Y P (inverse), with P a polynomial in h and the actions
A1, A2, A4 at the step's node t_k, its midpoint t_k + h/2 and the next node
t_{k+1} (the linear case of the Lie-group methods of Iserles, Munthe-Kaas,
Norsett and Zanna, Acta Numerica 9, 2000); the inverse takes each product
transposed:

    S1 = -A1,  S2 = -A2 (I + h/2 S1),  S3 = -A2 (I + h/2 S2),
    S4 = -A4 (I + h S3),  P = I + h/6 (S1 + 2 S2 + 2 S3 + S4).

Every curve steps on one node grid, t_k = t0 + k h with h = (t1 - t0) /
steps, so each curve costs 2 steps + 1 slope times: the nodes and the
midpoints between them.  The steps run in blocks: M at a block's midpoints
and nodes first, stacked (a later block starts from the action at the node
that ended the block before), then its propagators in three batched
products, then one product per step.  A stack of m curves takes
max(1, GRID_CHUNK // (2 m)) steps per block (256 for one curve, 16 for a
cloud chunk of 16 targets), paying a block's fixed cost (one curve
evaluation, the chart check, the guards on g) once per about GRID_CHUNK
slope points.  A block evaluates its curves at all its times in one call
(_CurveStack.at), then g and Gamma at all its points (ChartMetric.geometry:
chart box, then g singular or not positive definite, each raising at the
first point that fails).  Its times, in first-use order, and a cloud's chunk
of targets each go through metricspace.stacked_or_in_turn, so the error that
escapes is the one stepping time by time, target by target, meets first.  Each stacked product
is the per-curve product at each row: results are bit-identical to stepping
each curve alone with its propagators.  Accuracy contract: the truncation
error is RK4's; only the rounding order differs from slope-form RK4 (four
slopes on the state per step), matched within 64 steps eps max(1, |Y|_inf)
on every grid.  Where t0 = 0 and h is a power of two, t_{k+1} is t_k + h bit
for bit, so the results are bit-identical to taking the end stage at
t_k + h; elsewhere the two end times may differ by an ulp.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .cartan import orthonormal_frame
from .errors import DimensionError, NonClosedLoopError, StepSizeError
from .exprlang import (
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
    geometry = metric.geometry(points)
    g, gamma = geometry.g, geometry.gamma
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
    (see the module docstring); a block that leaves a state not finite (too
    few steps for the curvature met) raises StepSizeError."""
    m = len(curves.curves)

    def actions_at(times: np.ndarray) -> np.ndarray:
        states = curves.at(times)
        points = states[:, 0].reshape(-1, curves.chart.dim)
        velocities = states[:, 1].reshape(-1, curves.chart.dim)
        actions = _action_matrices(connection, metric, points, velocities)
        return actions.reshape(len(times), m, *actions.shape[1:])

    def stage(action: np.ndarray, factor: np.ndarray) -> np.ndarray:  # slope at factor y
        return -np.matmul(action, factor) if forward else np.matmul(factor, action)

    steps = curves.steps
    h = (curves.t1 - curves.t0) / steps
    half = 0.5 * h
    # the slope times in first-use order, t_0, t_0 + h/2, t_1, ..., t_steps,
    # on the node grid t_k = t0 + k h
    times = np.empty(2 * steps + 1)
    times[0::2] = curves.t0 + np.arange(steps + 1) * h
    times[1::2] = times[0:-1:2] + half
    # about GRID_CHUNK slope points per block, two per step and curve
    block = max(1, GRID_CHUNK // (2 * m))
    y = np.array(initial, dtype=float)
    eye = np.eye(y.shape[-2])
    if record is not None:
        record.append(y)
    for first in range(0, steps, block):
        stop = min(first + block, steps)
        # a later block starts at the node that ended the block before
        fresh = stacked_or_in_turn(actions_at, times[2 * first + (first > 0) : 2 * stop + 1])
        actions = fresh if first == 0 else np.concatenate((actions[-1:], fresh))
        node, mid, end = actions[0:-1:2], actions[1::2], actions[2::2]
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            s1 = -node if forward else node
            s2 = stage(mid, eye + half * s1)
            s3 = stage(mid, eye + half * s2)
            s4 = stage(end, eye + h * s3)
            for propagator in eye + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4):
                y = np.matmul(propagator, y) if forward else np.matmul(y, propagator)
                if record is not None:
                    record.append(y)
            # a sum of finite values is finite unless it overflows
            finite = math.isfinite(np.add.reduce(y.ravel())) or np.abs(y).max() < math.inf
        if not finite:
            t = float(times[2 * stop])
            raise StepSizeError(f"transport is not finite by t = {t!r}; take more steps per unit")
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
    return float(np.max(np.abs(np.subtract(curve.point_at(curve.t1), curve.point_at(curve.t0)))))


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
        end, start = previous.point_at(previous.t1), current.point_at(current.t0)
        gap = np.max(np.abs(np.subtract(end, start)))
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
    record: list = []
    u = np.eye(n + 1)[None]
    for segment in segments:
        if record:
            record.pop()  # the join node starts the next segment's record
        u = _rk4_transport(variant, metric, _CurveStack((segment,)), u, False, record)
    # read after the integrator, whose first block guards g at the base
    normalizer = np.eye(n + 1)
    normalizer[:n, :n] = orthonormal_frame(metric).coframe_at(base)
    states = np.array(record)[:, 0]
    return DevelopedPath(variant, np.matmul(normalizer, states[:, :, n, None])[:, :, 0])


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

    def developed_ends(chunk: list) -> np.ndarray:
        segments = [line_curve(chart, base, target, steps_per_unit) for target in chunk]
        return _developed_ends(variant, metric, segments)

    rows: list[np.ndarray] = []
    remaining = iter(targets)
    while chunk := list(itertools.islice(remaining, GRID_CHUNK)):
        rows.extend(stacked_or_in_turn(developed_ends, chunk))
    return np.array(rows)


def _developed_ends(variant: str, metric: ChartMetric, segments) -> np.ndarray:
    """``develop(...).end`` of each single-segment path, the segments
    sharing one parameter interval and step count, integrated as one stack."""
    variant_sign(variant)
    n = metric.dim
    curves = _CurveStack(segments)
    # each segment's own start point, as develop takes it: 0 + d*t folds to
    # d*t, so a zero base coordinate starts at -0.0 where d < 0
    starts = metric.chart.require_stack(curves.at([curves.t0])[0, 0])
    identities = np.tile(np.eye(n + 1), (len(segments), 1, 1))
    ends = _rk4_transport(variant, metric, curves, identities, False)
    normalizers = identities.copy()  # read after the integrator has guarded g
    normalizers[:, :n, :n] = orthonormal_frame(metric).coframe_at(starts)
    return np.matmul(normalizers, ends[:, :, n, None])[:, :, 0]


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
