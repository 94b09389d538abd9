"""Curves, parallel transport, holonomy, and developing maps."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cartanflat import transport
from cartanflat.bundle import bundle_pairing
from cartanflat.cartan import orthonormal_frame
from cartanflat.errors import (
    CartanflatError,
    ChartDomainError,
    DimensionError,
    NonClosedLoopError,
    SingularMetricError,
)
from cartanflat.exprlang import STACK_MIN_POINTS, parse
from cartanflat.metricspace import (
    GRID_CHUNK,
    Chart,
    ChartMetric,
    _check_definite,
    _check_nonsingular,
)
from cartanflat.presets import preset_metric
from cartanflat.sasaki import variant_sign
from cartanflat.transport import (
    CONNECTIONS,
    ChartCurve,
    circle_curve,
    develop,
    develop_cloud,
    holonomy,
    line_curve,
    parallel_transport,
    path_dependence,
    quadric_pairing,
    quadric_residual_of,
    transport_matrix,
    transport_trace,
)


def _hyperbolic_distance(p, q):
    return math.acosh(1.0 + ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2) / (2.0 * p[1] * q[1]))


def _spherical_distance(p, q):
    cos_d = math.cos(p[0]) * math.cos(q[0]) + math.sin(p[0]) * math.sin(q[0]) * math.cos(
        p[1] - q[1]
    )
    return math.acos(max(-1.0, min(1.0, cos_d)))


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def test_line_curve_points_and_velocity():
    chart = preset_metric("half_plane").chart
    curve = line_curve(chart, (0.0, 1.0), (2.0, 3.0))
    assert np.allclose(curve.point_at(0.0), (0.0, 1.0), atol=1e-15)
    assert np.allclose(curve.point_at(0.5), (1.0, 2.0), atol=1e-15)
    assert np.allclose(curve.velocity_at(0.3), (2.0, 2.0), atol=1e-15)
    assert curve.steps == 256


def test_circle_curve_closes_and_parametrizes_counterclockwise():
    chart = preset_metric("euclidean2").chart
    curve = circle_curve(chart, (0.1, -0.2), 0.3)
    assert np.allclose(curve.point_at(0.0), (0.4, -0.2), atol=1e-15)
    assert np.allclose(curve.point_at(0.25), (0.1, 0.1), atol=1e-12)
    assert np.allclose(curve.point_at(1.0), curve.point_at(0.0), atol=1e-12)


def test_curve_validation():
    chart = preset_metric("euclidean2").chart
    with pytest.raises(ValueError, match="only use 't'"):
        ChartCurve(chart, (parse("x1", chart.names), parse("0", ("t",))))
    with pytest.raises(DimensionError):
        ChartCurve(chart, (parse("t", ("t",)),))
    with pytest.raises(ValueError, match="t1 > t0"):
        line = line_curve(chart, (0.0, 0.0), (0.5, 0.5))
        ChartCurve(chart, line.comps, 1.0, 0.0)
    with pytest.raises(ChartDomainError):
        line_curve(chart, (0.0, 0.0), (5.0, 0.0))
    curve = ChartCurve(chart, line_curve(chart, (0.9, 0.0), (1.0, 0.0)).comps, 0.0, 3.0)
    with pytest.raises(ChartDomainError):
        curve.point_at(3.0)  # walks out of the box


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def test_euclidean_levi_civita_transport_is_exact_identity():
    m = preset_metric("euclidean2")
    loop = circle_curve(m.chart, (0.0, 0.0), 0.5)
    assert np.array_equal(holonomy("lc", m, loop), np.eye(2))


def test_levi_civita_transport_preserves_the_metric_norm():
    m = preset_metric("sphere2")
    curve = line_curve(m.chart, (0.4, 0.5), (1.8, 4.5))
    v0 = np.array([0.3, -0.2])
    v1 = parallel_transport("lc", m, curve, v0)
    before = float(v0 @ m.metric_at(curve.point_at(0.0)) @ v0)
    after = float(v1 @ m.metric_at(curve.point_at(1.0)) @ v1)
    assert abs(before - after) <= 1e-9


@pytest.mark.parametrize("variant", ["h", "s"])
def test_bundle_transport_preserves_the_fiber_pairing(variant):
    m = preset_metric("half_plane")
    curve = line_curve(m.chart, (-1.5, 0.5), (1.2, 3.5))
    rng = np.random.default_rng(2)
    for _ in range(5):
        u0 = rng.normal(size=3)
        v0 = rng.normal(size=3)
        u1 = parallel_transport(variant, m, curve, u0)
        v1 = parallel_transport(variant, m, curve, v0)
        before = bundle_pairing(variant, m, u0, v0, curve.point_at(0.0))
        after = bundle_pairing(variant, m, u1, v1, curve.point_at(1.0))
        assert abs(before - after) <= 1e-6


def test_transport_matrix_columns_match_vector_transport():
    m = preset_metric("half_plane")
    curve = line_curve(m.chart, (0.0, 1.0), (1.0, 2.0))
    matrix = transport_matrix("h", m, curve)
    for column, basis_vector in enumerate(np.eye(3)):
        assert np.allclose(
            matrix[:, column], parallel_transport("h", m, curve, basis_vector), atol=1e-12
        )


def test_transport_trace_records_every_node():
    m = preset_metric("half_plane")
    curve = line_curve(m.chart, (0.0, 1.0), (1.0, 2.0))
    times, matrices = transport_trace("h", m, curve)
    assert times.shape == (curve.steps + 1,)
    assert matrices.shape == (curve.steps + 1, 3, 3)
    assert times[0] == curve.t0 and times[-1] == curve.t1
    assert np.array_equal(matrices[0], np.eye(3))
    assert np.array_equal(matrices[-1], transport_matrix("h", m, curve))


def test_flat_holonomy_is_identity():
    hp = preset_metric("half_plane")
    loop = circle_curve(hp.chart, (0.0, 2.0), 0.8)
    assert np.max(np.abs(holonomy("h", hp, loop) - np.eye(3))) <= 1e-6
    sp = preset_metric("sphere2")
    loop2 = circle_curve(sp.chart, (math.pi / 2, 3.0), 0.7)
    assert np.max(np.abs(holonomy("s", sp, loop2) - np.eye(3))) <= 1e-6


def test_non_flat_holonomy_is_far_from_identity():
    hp = preset_metric("half_plane")
    loop = circle_curve(hp.chart, (0.0, 2.0), 0.8)
    assert np.max(np.abs(holonomy("s", hp, loop) - np.eye(3))) >= 0.1


def test_latitude_loop_rotates_by_pi():
    # closed on the surface but not in the chart, so it goes through
    # transport_matrix; at polar angle pi/3 the rotation is exactly pi
    m = preset_metric("sphere2")
    latitude = line_curve(m.chart, (math.pi / 3, 0.0), (math.pi / 3, 2.0 * math.pi))
    rotation = transport_matrix("lc", m, latitude)
    assert np.max(np.abs(rotation + np.eye(2))) <= 1e-8
    with pytest.raises(NonClosedLoopError):
        holonomy("lc", m, latitude)


def test_small_circle_holonomy_angle_tracks_enclosed_area():
    # the "h" connection over the flat plane has constant curvature
    # coefficient one, so small loops rotate by about their area
    m = preset_metric("euclidean2")
    radius = 0.1
    matrix = holonomy("h", m, circle_curve(m.chart, (0.0, 0.0), radius))
    angle = math.atan2(matrix[0, 1], matrix[0, 0])
    assert abs(abs(angle) - math.pi * radius**2) <= 1e-3


def test_parallel_transport_validates_vector_size():
    m = preset_metric("half_plane")
    curve = line_curve(m.chart, (0.0, 1.0), (1.0, 2.0))
    with pytest.raises(DimensionError):
        parallel_transport("h", m, curve, (1.0, 0.0))
    with pytest.raises(ValueError, match="expected 'h' or 's'"):
        parallel_transport("levi", m, curve, (1.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# developing maps
# ---------------------------------------------------------------------------


def _quadric_residual_row_by_row(variant, points) -> float:
    """The per-row loop: ``max()`` over each row's pairing with itself."""
    target = -1.0 if variant_sign(variant) > 0 else 1.0
    worst = 0.0
    for row in np.atleast_2d(np.asarray(points, dtype=float)):
        worst = max(worst, abs(quadric_pairing(variant, row, row) - target))
    return worst


@pytest.mark.parametrize("variant", ["h", "s"])
def test_quadric_residual_is_the_row_by_row_maximum_bitwise(variant):
    rng = np.random.default_rng(21)
    stacks = [rng.standard_normal((rows, d)) * 3.0 for d in (2, 3, 4, 5) for rows in (1, 7, 40, 800)]
    stacks[1][3, 1] = math.nan  # NaN loses to max()
    stacks[2][:, 0] = math.nan  # every deviation NaN: the floor of 0.0
    stacks[3][5, -1] = math.inf  # an infinite deviation
    stacks[6][9, 0] = stacks[6][9, -1] = math.inf  # inf - inf: NaN again
    stacks[7][2, -1] = 1e200  # the fiber part overflows
    m = preset_metric("half_plane")
    stacks += [
        rng.standard_normal(4),  # one point, not a stack
        rng.standard_normal((1, 4)),  # a single row
        np.empty((0, 3)),  # no rows
        rng.standard_normal((50, 6))[:, ::-2],  # strided rows
        develop(variant, m, line_curve(m.chart, (0.0, 1.0), (1.0, 2.0))).points,
    ]
    for stack in stacks:
        outcomes = []
        for residual in (quadric_residual_of, _quadric_residual_row_by_row):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcomes.append((residual(variant, stack), [str(w.message) for w in caught]))
        (got, got_warnings), (expected, expected_warnings) = outcomes
        assert got_warnings == expected_warnings  # the overflow warns as it did
        assert type(got) is float
        assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)


def test_develop_starts_at_the_fiber_pole():
    m = preset_metric("half_plane")
    dev = develop("h", m, line_curve(m.chart, (0.0, 1.0), (1.0, 2.0)))
    assert np.allclose(dev.points[0], (0.0, 0.0, 1.0), atol=1e-14)


def test_vertical_geodesic_develops_to_cosh_pairing():
    m = preset_metric("half_plane")
    dev = develop("h", m, line_curve(m.chart, (0.0, 1.0), (0.0, math.e)))
    assert dev.quadric_residual <= 1e-7
    pairing = quadric_pairing("h", dev.end, (0.0, 0.0, 1.0))
    assert abs(pairing + math.cosh(1.0)) <= 1e-5


def test_developed_pairs_reproduce_hyperbolic_distances():
    m = preset_metric("half_plane")
    rng = np.random.default_rng(0)
    points = m.chart.random_points(rng, 8)
    cloud = develop_cloud("h", m, (0.0, 1.0), points)
    assert quadric_residual_of("h", cloud) <= 1e-7
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            got = quadric_pairing("h", cloud[a], cloud[b])
            want = -math.cosh(_hyperbolic_distance(points[a], points[b]))
            assert abs(got - want) <= 1e-5


def test_developed_pairs_reproduce_spherical_distances():
    m = preset_metric("sphere2")
    rng = np.random.default_rng(1)
    points = m.chart.random_points(rng, 8)
    cloud = develop_cloud("s", m, (math.pi / 2, 3.0), points)
    assert quadric_residual_of("s", cloud) <= 1e-7
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            got = quadric_pairing("s", cloud[a], cloud[b])
            want = math.cos(_spherical_distance(points[a], points[b]))
            assert abs(got - want) <= 1e-5


def test_quarter_equator_develops_to_orthogonal_image():
    m = preset_metric("sphere2")
    dev = develop("s", m, line_curve(m.chart, (math.pi / 2, 0.0), (math.pi / 2, math.pi / 2)))
    assert abs(quadric_pairing("s", dev.end, (0.0, 0.0, 1.0))) <= 1e-7
    half = develop("s", m, line_curve(m.chart, (math.pi / 2, 0.0), (math.pi / 2, math.pi)))
    assert abs(quadric_pairing("s", half.end, (0.0, 0.0, 1.0)) + 1.0) <= 1e-7


def test_development_is_path_independent_where_flat():
    hp = preset_metric("half_plane")
    assert path_dependence("h", hp, (-1.0, 0.5), (1.0, 3.0), (0.5, 4.0)) <= 1e-6
    sp = preset_metric("sphere2")
    assert path_dependence("s", sp, (0.5, 1.0), (2.0, 4.0), (1.2, 5.5)) <= 1e-6


def test_development_is_path_dependent_otherwise():
    bump = preset_metric("conformal_bump")
    assert path_dependence("h", bump, (-0.5, -0.5), (0.5, 0.5), (0.5, -0.5)) >= 0.1


def test_develop_base_choice_does_not_change_pairings():
    m = preset_metric("half_plane")
    targets = [(-0.8, 0.8), (1.1, 2.2)]
    first = develop_cloud("h", m, (0.0, 1.0), targets)
    second = develop_cloud("h", m, (-1.0, 2.0), targets)
    got = quadric_pairing("h", first[0], first[1])
    want = quadric_pairing("h", second[0], second[1])
    assert abs(got - want) <= 1e-5


def test_develop_multi_segment_continuity():
    m = preset_metric("half_plane")
    a = line_curve(m.chart, (0.0, 1.0), (0.5, 1.5))
    b = line_curve(m.chart, (0.5, 1.5), (1.0, 2.5))
    chained = develop("h", m, (a, b))
    direct = develop("h", m, line_curve(m.chart, (0.0, 1.0), (1.0, 2.5)))
    assert np.allclose(chained.end, direct.end, atol=1e-6)
    assert len(chained.points) == a.steps + b.steps + 1
    broken = line_curve(m.chart, (0.6, 1.5), (1.0, 2.5))
    with pytest.raises(ValueError, match="do not join"):
        develop("h", m, (a, broken))
    with pytest.raises(ValueError, match="at least one"):
        develop("h", m, ())


def test_develop_rejects_the_levi_civita_mode():
    m = preset_metric("half_plane")
    with pytest.raises(ValueError, match="expected 'h' or 's'"):
        develop("lc", m, line_curve(m.chart, (0.0, 1.0), (1.0, 2.0)))


# ---------------------------------------------------------------------------
# the stacked integrator against the one-curve reference
# ---------------------------------------------------------------------------


def _reference_action(connection, metric, point, velocity):
    """The action matrix of one slope, from one point query at a time, with
    the integrator's guards in its order: chart box, singular g, g not
    positive definite, then Gamma."""
    n = metric.dim
    g = metric.metric_at(point)
    _check_nonsingular(g, point)
    _check_definite(g, point)
    gamma = metric.christoffel(point)
    tangent_block = np.tensordot(velocity, gamma, axes=(0, 1))
    if connection == "lc":
        return tangent_block
    sign = variant_sign(connection)
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = tangent_block
    out[:n, n] = velocity
    out[n, :n] = sign * (g @ velocity)
    return out


def _reference_rk4(connection, metric, curve, initial, forward, record=None):
    """RK4 along one curve, one point query per slope: the reference for
    the stacked integrator."""

    def slope(t, y):
        m = _reference_action(connection, metric, curve.point_at(t), curve.velocity_at(t))
        return -(m @ y) if forward else y @ m

    steps = curve.steps
    h = (curve.t1 - curve.t0) / steps
    y = np.array(initial, dtype=float)
    if record is not None:
        record.append(y.copy())
    for k in range(steps):
        t = curve.t0 + k * h
        k1 = slope(t, y)
        k2 = slope(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = slope(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = slope(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if record is not None:
            record.append(y.copy())
    return y


def _reference_develop(variant, metric, segments):
    n = metric.dim
    normalizer = np.eye(n + 1)
    base = segments[0].point_at(segments[0].t0)
    normalizer[:n, :n] = orthonormal_frame(metric).coframe_at(base)
    rows = []
    u = np.eye(n + 1)
    for index, segment in enumerate(segments):
        record = []
        u = _reference_rk4(variant, metric, segment, u, False, record)
        rows.extend(normalizer @ step[:, n] for step in (record[1:] if index else record))
    return np.array(rows)


_TWO_PI = repr(2.0 * math.pi)

# per preset: a path of chart points and a closed loop (center, radius; in
# the first two coordinates)
_PATHS = {
    "half_plane": ([(0.0, 1.0), (1.0, 2.0), (-0.5, 3.0)], ((0.0, 2.0), 1.0)),
    "conformal_bump": ([(-0.5, -0.5), (0.5, 0.4), (0.0, 0.8)], ((0.1, 0.0), 0.5)),
    "hyperbolic3": ([(0.0, 0.0, 1.0), (-0.5, 0.3, 2.0), (1.0, -1.0, 0.5)], ((0.2, 0.1), 0.3)),
    "sphere3": ([(1.0, 1.0, 2.0), (1.5, 1.2, 3.0), (2.0, 0.8, 2.0)], ((1.5, 1.5), 0.3)),
}


def _loop(chart, center, radius, steps_per_unit):
    names = ("t",)
    comps = [
        parse(f"{center[0]!r} + {radius!r} * cos({_TWO_PI} * t)", names),
        parse(f"{center[1]!r} + {radius!r} * sin({_TWO_PI} * t)", names),
    ]
    mid = [0.5 * (lo + hi) for lo, hi in chart.box[2:]]
    comps += [parse(repr(value), names) for value in mid]
    return ChartCurve(chart, comps, 0.0, 1.0, steps_per_unit)


@pytest.mark.parametrize("name", sorted(_PATHS))
def test_stacked_integrator_matches_the_reference_bit_for_bit(name):
    m = preset_metric(name)
    corners, (center, radius) = _PATHS[name]
    segments = [line_curve(m.chart, a, b, 16) for a, b in zip(corners, corners[1:])]
    for connection in CONNECTIONS:
        size = m.dim if connection == "lc" else m.dim + 1
        record = []
        _reference_rk4(connection, m, segments[0], np.eye(size), True, record)
        times, matrices = transport_trace(connection, m, segments[0])
        assert np.array_equal(matrices, np.array(record))
        vector = np.linspace(0.5, -0.25, size)
        want = _reference_rk4(connection, m, segments[1], vector, True)
        assert np.array_equal(parallel_transport(connection, m, segments[1], vector), want)
        loop = _loop(m.chart, center, radius, 16)
        want = _reference_rk4(connection, m, loop, np.eye(size), True)
        assert np.array_equal(holonomy(connection, m, loop), want)
    for variant in ("h", "s"):
        got = develop(variant, m, segments).points
        assert np.array_equal(got, _reference_develop(variant, m, segments))


_CLOUDS = {
    "hyperbolic3": ("h", (0.0, 0.0, 1.0)),
    "half_plane": ("s", (0.0, 1.0)),
}


def _cloud_targets(name):
    m = preset_metric(name)
    point = st.tuples(*(st.floats(lo, hi) for lo, hi in m.chart.inner_box()))
    return st.lists(point, max_size=5)


def _assert_cloud_is_develop_ends(name, targets, steps_per_unit=8):
    m = preset_metric(name)
    variant, base = _CLOUDS[name]
    cloud = develop_cloud(variant, m, base, targets, steps_per_unit=steps_per_unit)
    ends = [
        develop(variant, m, line_curve(m.chart, base, t, steps_per_unit)).end
        for t in targets
    ]
    assert np.array_equal(cloud, np.array(ends))
    # equal as numbers, and zero for zero with the same sign
    assert np.array_equal(np.signbit(cloud), np.signbit(np.array(ends)))


@settings(max_examples=25, deadline=None)
@given(_cloud_targets("hyperbolic3"))
@example([])
@example([(-0.5, 0.3, 2.0)])  # starts at (-0.0, 0.0, 1.0): 0 + d*t folds to d*t
def test_develop_cloud_rows_are_develop_ends_hyperbolic3(targets):
    _assert_cloud_is_develop_ends("hyperbolic3", targets)


@settings(max_examples=25, deadline=None)
@given(_cloud_targets("half_plane"))
@example([(-1.5, 4.0)])
def test_develop_cloud_rows_are_develop_ends_half_plane(targets):
    _assert_cloud_is_develop_ends("half_plane", targets)


@pytest.mark.parametrize("name", sorted(_CLOUDS))
def test_develop_cloud_chunks_are_develop_ends(monkeypatch, name):
    # chunks of 33 and 7 targets: slopes past the point-by-point cutoff
    # of compiled evaluation, then below it
    monkeypatch.setattr(transport, "GRID_CHUNK", STACK_MIN_POINTS + 1)
    targets = preset_metric(name).chart.random_points(np.random.default_rng(3), 40)
    _assert_cloud_is_develop_ends(name, targets, steps_per_unit=2)


_DIPPING = (("1", "0"), ("0", "1.2 - 2*exp(-100*((x-0.6)^2 + (y-0.6)^2))"))


def _cloud_and_in_turn_errors(base, targets, steps_per_unit):
    """What develop_cloud raises on the dipping metric, and what developing
    the targets one at a time raises first."""
    m = ChartMetric(Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0))), _DIPPING)
    with pytest.raises(CartanflatError) as in_turn:
        for target in targets:
            develop("h", m, line_curve(m.chart, base, target, steps_per_unit))
    with pytest.raises(CartanflatError) as cloud:
        develop_cloud("h", m, base, targets, steps_per_unit=steps_per_unit)
    assert type(cloud.value) is type(in_turn.value) is SingularMetricError
    assert str(cloud.value) == str(in_turn.value)
    assert cloud.value.point == in_turn.value.point
    return in_turn.value


def test_develop_cloud_raises_the_first_error_of_developing_in_turn():
    # the 3rd and the 5th segment cross the dip where g stops being positive
    # definite; the 5th, being longer, reaches it at a smaller t, so the
    # stacked integration meets its error first
    base = (0.3, 0.3)
    targets = [(0.3, -0.5), (-0.5, 0.3), (0.9, 0.9), (0.0, 0.8), (1.0, 1.0)]
    x, y = _cloud_and_in_turn_errors(base, targets, 64).point
    assert x == y  # on the third segment, the diagonal


def test_develop_cloud_raises_the_in_turn_error_from_a_later_stacked_block():
    # as above, with the 2nd and the 4th segment reaching the dip inside the
    # second block of 64 steps, the 4th at an earlier step than the 2nd and
    # at a point that differs from the 2nd's in the last bits
    base = (-0.5, -0.5)
    targets = [(-0.9, 0.2), (0.7, 0.7), (0.2, -0.9), (0.9, 0.9)]
    steps = 128
    block = _cloud_block(len(targets))
    x, y = _cloud_and_in_turn_errors(base, targets, steps).point
    assert x == y  # on the second segment, the diagonal
    step = math.floor((x - base[0]) / (0.7 - base[0]) * steps - 1e-9)
    assert block > 1 and step // block == 1 and step % block > 0


# ---------------------------------------------------------------------------
# the block schedule: shared slope times, block edges, errors inside a block
# ---------------------------------------------------------------------------

# steps per block of a single curve
_BLOCK = (STACK_MIN_POINTS - 1) // 2


def _cloud_block(count):
    """Steps per block of a stack of count >= 2 curves."""
    return max(1, GRID_CHUNK // (2 * count))


def _has_unshared_end(curve):
    """Whether some step's end time t_k + h is not the next node t_{k+1}."""
    steps = curve.steps
    h = (curve.t1 - curve.t0) / steps
    return any(curve.t0 + k * h + h != curve.t0 + (k + 1) * h for k in range(steps))


def _assert_matches_the_reference(m, curve):
    for connection in CONNECTIONS:
        size = m.dim if connection == "lc" else m.dim + 1
        record = []
        _reference_rk4(connection, m, curve, np.eye(size), True, record)
        times, matrices = transport_trace(connection, m, curve)
        assert np.array_equal(matrices, np.array(record))
        vector = np.linspace(0.5, -0.25, size)
        want = _reference_rk4(connection, m, curve, vector, True)
        assert np.array_equal(parallel_transport(connection, m, curve, vector), want)
    for variant in ("h", "s"):
        got = develop(variant, m, curve).points
        assert np.array_equal(got, _reference_develop(variant, m, [curve]))


@pytest.mark.parametrize("name", ["half_plane", "hyperbolic3"])
@pytest.mark.parametrize("steps_per_unit", [7, 10])
def test_schedule_matches_the_reference_on_non_dyadic_steps(name, steps_per_unit):
    m = preset_metric(name)
    corners = _PATHS[name][0]
    line = line_curve(m.chart, corners[0], corners[1], steps_per_unit)
    later = ChartCurve(m.chart, line.comps, 0.1, 1.3, steps_per_unit)
    for curve in (line, later):
        assert _has_unshared_end(curve)
        _assert_matches_the_reference(m, curve)


@pytest.mark.parametrize(
    "steps", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 3 * _BLOCK + 2]
)
def test_schedule_matches_the_reference_at_block_edges(steps):
    m = preset_metric("sphere3")
    corners = _PATHS["sphere3"][0]
    _assert_matches_the_reference(m, line_curve(m.chart, corners[0], corners[1], steps))


def _assert_cloud_matches_the_reference(count, steps_per_unit):
    m = preset_metric("hyperbolic3")
    variant, base = _CLOUDS["hyperbolic3"]
    targets = m.chart.random_points(np.random.default_rng(count), count)
    cloud = develop_cloud(variant, m, base, targets, steps_per_unit=steps_per_unit)
    want = np.array([
        _reference_develop(variant, m, [line_curve(m.chart, base, t, steps_per_unit)])[-1]
        for t in targets
    ])
    assert np.array_equal(cloud, want)
    assert np.array_equal(np.signbit(cloud), np.signbit(want))


@pytest.mark.parametrize("count", [1, 3, 15, 16, 33])
@pytest.mark.parametrize("steps_per_unit", [8, 10])
def test_develop_cloud_matches_the_reference_bit_for_bit(count, steps_per_unit):
    _assert_cloud_matches_the_reference(count, steps_per_unit)


def _unshared_block_edges(steps, block):
    """The last steps of full blocks whose end time t_k + h is not the next
    node t_{k+1} (a segment runs over t in [0, 1])."""
    h = 1.0 / steps
    return [k for k in range(block - 1, steps - 1, block) if k * h + h != (k + 1) * h]


# per cloud size: one block less a step, one block, one block and a step,
# and two blocks and three steps
_CLOUD_EDGE_CASES = [
    (count, steps)
    for count in (2, 16, 17)
    for block in [_cloud_block(count)]
    for steps in (block - 1, block, block + 1, 2 * block + 3)
]


@pytest.mark.parametrize("count, steps", _CLOUD_EDGE_CASES)
def test_develop_cloud_matches_the_reference_at_stacked_block_edges(count, steps):
    _assert_cloud_matches_the_reference(count, steps)


def test_the_stacked_block_edge_cases_cross_an_unshared_edge():
    # a non-dyadic step count whose end time t_k + h at a block's last step
    # is not the next block's first node, so that block evaluates its node
    assert any(
        _unshared_block_edges(steps, _cloud_block(count)) for count, steps in _CLOUD_EDGE_CASES
    )


def _dipping_metric():
    return ChartMetric(Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0))), _DIPPING)


def _diagonal(chart, t1, steps_per_unit):
    """x = y = 0.3 + 0.6 t, through the dip at t = 0.5, out of the box past
    t = 7/6."""
    return ChartCurve(chart, line_curve(chart, (0.3, 0.3), (0.9, 0.9)).comps, 0.0, t1, steps_per_unit)


def _errors_of(metric, curve):
    """What the reference and each integrator entry point raise on a curve."""
    calls = {
        "reference transport": lambda: _reference_rk4("h", metric, curve, np.eye(3), True),
        "reference develop": lambda: _reference_develop("h", metric, [curve]),
        "transport_matrix h": lambda: transport_matrix("h", metric, curve),
        "transport_matrix lc": lambda: transport_matrix("lc", metric, curve),
        "develop": lambda: develop("h", metric, curve),
    }
    errors = {}
    for label, call in calls.items():
        with pytest.raises(CartanflatError) as info:
            call()
        errors[label] = info.value
    return errors


def _assert_same_error(errors, kind):
    reference = errors["reference transport"]
    assert type(reference) is kind
    for label, error in errors.items():
        assert type(error) is kind, label
        assert str(error) == str(reference), label
        assert getattr(error, "point", None) == getattr(reference, "point", None), label


def test_a_dip_inside_a_block_raises_the_reference_error():
    m = _dipping_metric()
    curve = _diagonal(m.chart, 1.0, 64)
    errors = _errors_of(m, curve)
    _assert_same_error(errors, SingularMetricError)
    x, y = errors["reference transport"].point
    assert x == y
    # the first failing slope time, t = 27/64, is the end of step 26, the
    # twelfth step of the second block
    step = math.floor((x - 0.3) / 0.6 * 64 - 1e-9)
    assert step == 26 and 0 < step % _BLOCK < _BLOCK - 1


def test_a_dip_before_the_chart_exit_in_one_block_raises_the_dip():
    # the dip (midpoint of step 3, t = 0.4375) and the exit (midpoint of
    # step 9, t = 1.1875) lie in the first block, whose stacked evaluation
    # checks the chart box at all its points first and so meets the exit
    # first; the error must still be the dip's, which slope-by-slope
    # stepping meets first
    m = _dipping_metric()
    curve = _diagonal(m.chart, 2.0, 8)
    assert 9 < _BLOCK
    errors = _errors_of(m, curve)
    _assert_same_error(errors, SingularMetricError)
    assert errors["develop"].point == (0.5625, 0.5625)


def test_leaving_the_chart_inside_a_block_raises_the_reference_error():
    # x = 0.5 t leaves the box at t = 2, inside the second block of steps
    m = _dipping_metric()
    line = line_curve(m.chart, (0.0, -0.5), (0.5, -0.5))
    curve = ChartCurve(m.chart, line.comps, 0.0, 3.0, 10)
    errors = _errors_of(m, curve)
    _assert_same_error(errors, ChartDomainError)
    assert "(1.025, -0.5)" in str(errors["develop"])


# ---------------------------------------------------------------------------
# the block sizes: one stacked evaluation per block of a cloud, and blocks
# of a single curve below the stacked-evaluation cutoff
# ---------------------------------------------------------------------------


def _slope_stacks(monkeypatch):
    """The number of points of each metric_and_christoffel call from now on."""
    sizes = []
    original = ChartMetric.metric_and_christoffel

    def spy(self, points):
        sizes.append(len(points))
        return original(self, points)

    monkeypatch.setattr(ChartMetric, "metric_and_christoffel", spy)
    return sizes


def test_a_cloud_of_16_targets_evaluates_its_slopes_16_steps_at_a_time(monkeypatch):
    m = preset_metric("hyperbolic3")
    variant, base = _CLOUDS["hyperbolic3"]
    targets = m.chart.random_points(np.random.default_rng(16), 16)
    sizes = _slope_stacks(monkeypatch)
    develop_cloud(variant, m, base, targets, steps_per_unit=256)
    assert len(sizes) == math.ceil(256 / 16)
    assert min(sizes) >= STACK_MIN_POINTS


def test_a_single_curve_evaluates_its_slopes_below_the_stacked_cutoff(monkeypatch):
    m = preset_metric("hyperbolic3")
    variant, base = _CLOUDS["hyperbolic3"]
    sizes = _slope_stacks(monkeypatch)
    develop(variant, m, line_curve(m.chart, base, (-0.5, 0.3, 2.0), 256))
    assert len(sizes) == math.ceil(256 / _BLOCK)
    assert max(sizes) <= STACK_MIN_POINTS - 1
