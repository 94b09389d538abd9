"""Covariant derivatives on TM + line sections, FD curvature, and the
R - R_K identity."""

import gc
import weakref

import numpy as np
import pytest

from cartanflat import metricspace
from cartanflat.bundle import (
    BundleSection,
    _seeded_sections,
    bundle_curvature,
    bundle_pairing,
    covariant_derivative,
    identity_residual,
    metric_compatibility_residual,
    random_section,
    reference_curvature_action,
)
from cartanflat.cartan import orthonormal_frame
from cartanflat.cli import main
from cartanflat.errors import CartanflatError, DimensionError, SingularMetricError, StepSizeError
from cartanflat.exprlang import STACK_MIN_POINTS, Const, Var, add, differentiate, evaluate, mul, parse
from cartanflat.metricspace import (
    Chart,
    ChartMetric,
    constant_curvature_action,
    constant_curvature_tensor,
    stacked_or_in_turn,
)
from cartanflat.presets import preset_metric, random_metric
from cartanflat.sasaki import MatrixOneForm, connection_matrix


def _constant_section(chart, vector, scalar):
    return BundleSection(chart, tuple(Const(float(v)) for v in vector), Const(float(scalar)))


# ---------------------------------------------------------------------------
# covariant derivative: worked values and structure
# ---------------------------------------------------------------------------


def test_euclidean_derivative_of_coordinate_section():
    m = preset_metric("euclidean2")
    section = _constant_section(m.chart, (1.0, 0.0), 0.0)
    point = (0.2, -0.3)
    assert np.allclose(covariant_derivative("h", m, section, 0).at(point), [0.0, 0.0, 1.0], atol=1e-14)
    assert np.allclose(covariant_derivative("s", m, section, 0).at(point), [0.0, 0.0, -1.0], atol=1e-14)
    assert np.allclose(covariant_derivative("h", m, section, 1).at(point), [0.0, 0.0, 0.0], atol=1e-14)


def test_euclidean_derivative_of_pure_fiber_section():
    m = preset_metric("euclidean2")
    section = _constant_section(m.chart, (0.0, 0.0), 1.0)
    point = (0.1, 0.4)
    for variant in ("h", "s"):
        assert np.allclose(covariant_derivative(variant, m, section, 0).at(point), [1.0, 0.0, 0.0], atol=1e-14)
        assert np.allclose(covariant_derivative(variant, m, section, 1).at(point), [0.0, 1.0, 0.0], atol=1e-14)


def test_half_plane_parallel_direction_closed_form():
    # y d_y + e is parallel along d_x for the "h" derivative:
    # nabla_x (y d_y) = -d_x cancels against f d_x, and g(d_x, y d_y) = 0.
    m = preset_metric("half_plane")
    section = BundleSection(m.chart, (Const(0.0), parse("x2", m.chart.names)), Const(1.0))
    assert np.allclose(covariant_derivative("h", m, section, 0).at((0.3, 1.7)), 0.0, atol=1e-13)
    # along d_y it is not parallel: (0, 1) + (1/y) e
    value = covariant_derivative("h", m, section, 1).at((0.0, 2.0))
    assert np.allclose(value, [0.0, 1.0, 0.5], atol=1e-13)


def test_derivative_is_additive():
    m = preset_metric("conformal_bump")
    rng = np.random.default_rng(5)
    s = random_section(m.chart, rng)
    t = random_section(m.chart, rng)
    combined = BundleSection(
        m.chart,
        tuple(add(a, b) for a, b in zip(s.vector, t.vector)),
        add(s.scalar, t.scalar),
    )
    for point in m.chart.random_points(rng, 4):
        for variant in ("h", "s"):
            for k in range(2):
                left = covariant_derivative(variant, m, combined, k).at(point)
                right = covariant_derivative(variant, m, s, k).at(point) + covariant_derivative(
                    variant, m, t, k
                ).at(point)
                assert np.allclose(left, right, atol=1e-12)


def test_derivative_satisfies_leibniz_rule():
    m = preset_metric("half_plane")
    rng = np.random.default_rng(6)
    s = random_section(m.chart, rng)
    factor = parse("x1 + x2^2", m.chart.names)
    scaled = BundleSection(
        m.chart, tuple(mul(factor, a) for a in s.vector), mul(factor, s.scalar)
    )
    for point in m.chart.random_points(rng, 4):
        env = dict(zip(m.chart.names, point))
        for variant in ("h", "s"):
            for k in range(2):
                left = covariant_derivative(variant, m, scaled, k).at(point)
                right = evaluate(factor, env) * covariant_derivative(variant, m, s, k).at(
                    point
                ) + evaluate(differentiate(factor, m.chart.names[k]), env) * s.at(point)
                assert np.allclose(left, right, atol=1e-9)


def test_repeated_calls_reuse_the_cached_derivative():
    m = preset_metric("euclidean2")
    section = _constant_section(m.chart, (1.0, 0.0), 0.0)
    first = covariant_derivative("h", m, section, 0)
    second = covariant_derivative("h", m, section, 0)
    assert first is second


def test_cached_derivatives_live_and_die_with_their_metric():
    m = random_metric(3, 0)
    point = (0.1, -0.2, 0.3)
    before = covariant_derivative.cache_info()
    first = metric_compatibility_residual("h", m, point, trials=1, seed=0)
    middle = covariant_derivative.cache_info()
    assert metric_compatibility_residual("h", m, point, trials=1, seed=0) == first
    # the residual expressions are cached whole, so the second call takes
    # no covariant derivative at all
    assert covariant_derivative.cache_info() == middle
    assert middle.misses - before.misses == 2 * 3  # two sections, three directions
    probe = weakref.ref(m)
    del m
    gc.collect()
    assert probe() is None


def test_identity_guards_each_chunk_once_beyond_the_scan(monkeypatch, capsys):
    shapes = []
    certified = metricspace._certified

    def spy(g):
        shapes.append(g.shape)
        return certified(g)

    monkeypatch.setattr(metricspace, "_certified", spy)
    code = main(["identity", "--preset", "hyperbolic3", "--variant", "h", "--grid", "4"])
    capsys.readouterr()
    assert code == 0
    # the build sample (4^3 points), the scan's one chunk, the residual's geometry
    assert shapes == [(64, 3, 3)] * 3


def test_a_read_geometry_is_freed_with_its_last_reference():
    m = preset_metric("hyperbolic3")
    geometry = m.geometry(np.array(m.chart.random_points(np.random.default_rng(3), 40)))
    geometry.g, geometry.gamma, geometry.riemann
    probe = weakref.ref(geometry)
    gc.disable()
    try:
        del geometry  # reference counting alone must free it: no cycle
        assert probe() is None
    finally:
        gc.enable()


def test_covariant_derivative_cache_evicts_the_least_recently_used():
    m = random_metric(2, 1)
    sections = [_constant_section(m.chart, (float(k), 0.0), 0.0) for k in range(513)]
    first = covariant_derivative("h", m, sections[0], 0)
    for section in sections[1:512]:
        covariant_derivative("h", m, section, 0)
    assert covariant_derivative("h", m, sections[0], 0) is first  # now most recent
    covariant_derivative("h", m, sections[512], 0)  # evicts sections[1]'s entry
    hits = covariant_derivative.cache_info().hits
    assert covariant_derivative("h", m, sections[0], 0) is first
    covariant_derivative("h", m, sections[1], 0)
    assert covariant_derivative.cache_info().hits == hits + 1


def test_section_validation():
    chart = preset_metric("euclidean2").chart
    with pytest.raises(ValueError, match="undeclared"):
        BundleSection(chart, (Var("q"), Const(0.0)), Const(0.0))
    # the message names the first component's strays, not all of them
    with pytest.raises(ValueError) as err:
        BundleSection(chart, (Const(0.0), Var("q") + Var("x1")), Var("r"))
    assert str(err.value) == "section uses undeclared variables: ['q']"
    with pytest.raises(DimensionError):
        BundleSection(chart, (Const(0.0),), Const(0.0))
    m = preset_metric("euclidean2")
    with pytest.raises(DimensionError):
        covariant_derivative("h", m, _constant_section(chart, (1.0, 0.0), 0.0), 2)


def test_random_sections_stay_bounded():
    rng = np.random.default_rng(9)
    for name in ("half_plane", "hyperbolic3"):
        chart = preset_metric(name).chart
        section = random_section(chart, rng)
        for point in chart.grid(4):
            assert np.max(np.abs(section.at(point))) <= 10.0


# ---------------------------------------------------------------------------
# curvature by finite differences
# ---------------------------------------------------------------------------


def test_euclidean_curvature_closed_form():
    # R^h(d_x, d_y) xi = g(d_y, xi) d_x - g(d_x, xi) d_y for the flat metric
    m = preset_metric("euclidean2")
    section = _constant_section(m.chart, (1.0, 0.0), 0.7)
    value = bundle_curvature("h", m, section, 0, 1, (0.2, 0.1))
    assert np.allclose(value.vector, [0.0, -1.0], atol=1e-8)
    assert abs(value.e_component) <= 1e-8
    flipped = bundle_curvature("s", m, section, 0, 1, (0.2, 0.1))
    assert np.allclose(flipped.vector, [0.0, 1.0], atol=1e-8)


def test_curvature_ignores_the_fiber_component():
    m = preset_metric("conformal_bump")
    rng = np.random.default_rng(13)
    base = random_section(m.chart, rng)
    shifted = BundleSection(m.chart, base.vector, add(base.scalar, parse("1 + x1 * x2", m.chart.names)))
    point = (0.25, -0.4)
    for variant in ("h", "s"):
        a = bundle_curvature(variant, m, base, 0, 1, point)
        b = bundle_curvature(variant, m, shifted, 0, 1, point)
        assert np.allclose(a.vector, b.vector, atol=1e-9)
        assert abs(a.e_component - b.e_component) <= 1e-9


def test_flat_variants_have_zero_curvature():
    rng = np.random.default_rng(14)
    hp = preset_metric("half_plane")
    s = random_section(hp.chart, rng)
    for point in hp.chart.random_points(rng, 3):
        value = bundle_curvature("h", hp, s, 0, 1, point)
        assert np.max(np.abs(value.vector)) <= 1e-8
        assert abs(value.e_component) <= 1e-8
    sp = preset_metric("sphere2")
    s = random_section(sp.chart, rng)
    for point in sp.chart.random_points(rng, 3):
        value = bundle_curvature("s", sp, s, 0, 1, point)
        assert np.max(np.abs(value.vector)) <= 1e-8
        assert abs(value.e_component) <= 1e-8


def test_reference_action_euclidean_closed_form():
    m = preset_metric("euclidean2")
    xi = np.array([0.3, -0.8])
    expected = np.array([xi[1], -xi[0]])  # g(d_y, xi) d_x - g(d_x, xi) d_y
    assert np.allclose(reference_curvature_action("h", m, xi, 0, 1, (0.0, 0.0)), expected, atol=1e-12)
    assert np.allclose(reference_curvature_action("s", m, xi, 0, 1, (0.0, 0.0)), -expected, atol=1e-12)


@pytest.mark.parametrize("name", ["half_plane", "sphere2", "conformal_bump"])
@pytest.mark.parametrize("variant", ["h", "s"])
def test_identity_residual_presets(name, variant):
    m = preset_metric(name)
    rng = np.random.default_rng(17)
    for point in m.chart.random_points(rng, 3):
        report = identity_residual(variant, m, point, trials=5, seed=0)
        assert report.vector <= 1e-5
        assert report.e_component <= 1e-6


@pytest.mark.parametrize("dim", [2, 3])
def test_identity_residual_random_metrics(dim):
    for seed in (0, 1):
        m = random_metric(dim, seed=seed)
        rng = np.random.default_rng(18 + seed)
        for point in m.chart.random_points(rng, 2):
            for variant in ("h", "s"):
                report = identity_residual(variant, m, point, trials=4, seed=seed)
                assert report.vector <= 1e-5
                assert report.e_component <= 1e-6


def test_identity_residual_is_deterministic():
    m = preset_metric("half_plane")
    a = identity_residual("h", m, (0.3, 1.1), trials=4, seed=2)
    b = identity_residual("h", m, (0.3, 1.1), trials=4, seed=2)
    assert a == b


def test_explicit_step_override():
    m = preset_metric("half_plane")
    rng = np.random.default_rng(19)
    s = random_section(m.chart, rng)
    value = bundle_curvature("h", m, s, 0, 1, (0.4, 2.0), step=0.005)
    assert np.max(np.abs(value.vector)) <= 1e-6


def test_step_size_errors():
    m = preset_metric("half_plane")
    s = _constant_section(m.chart, (1.0, 0.0), 0.0)
    with pytest.raises(StepSizeError, match="below"):
        bundle_curvature("h", m, s, 0, 1, (0.0, 1.0), step=1e-12)
    with pytest.raises(StepSizeError, match="leaves the chart"):
        bundle_curvature("h", m, s, 0, 1, (0.0, 0.201), step=0.01)


# ---------------------------------------------------------------------------
# the stacked identity route against the point-by-point loop it replaced
# ---------------------------------------------------------------------------


def _reference_partial(values_at, chart, point, axis, step):
    lo, hi = chart.box[axis]
    extent = hi - lo
    h = 1e-4 * extent if step is None else float(step)
    if h < 1e-8 * extent:
        raise StepSizeError(f"step {h:.3e} is below {1e-8:g} of the axis extent {extent:.3e}")
    shifted = []
    for offset in (h, -h, 0.5 * h, -0.5 * h):
        q = list(point)
        q[axis] += offset
        if not chart.contains(q):
            raise StepSizeError(
                f"difference stencil leaves the chart at {tuple(q)}; "
                "move the point inward or pass a smaller step"
            )
        shifted.append(tuple(q))
    wide = (values_at(shifted[0]) - values_at(shifted[1])) / (2.0 * h)
    narrow = (values_at(shifted[2]) - values_at(shifted[3])) / h
    return (4.0 * narrow - wide) / 3.0


def _reference_outer(variant, m, section, direction, point, step):
    n = m.dim
    deriv = _reference_partial(section.at, m.chart, point, direction, step)
    values = section.at(point)
    gamma = m.christoffel(point)
    g = m.metric_at(point)
    out = np.empty(n + 1)
    out[:n] = deriv[:n] + gamma[:, direction, :] @ values[:n]
    out[direction] += values[n]
    out[n] = deriv[n] + (1.0 if variant == "h" else -1.0) * float(g[direction] @ values[:n])
    return out


def _reference_curvature(variant, m, section, i, j, point, step=None):
    point = m.chart.require(point)
    forward = _reference_outer(variant, m, covariant_derivative(variant, m, section, j), i, point, step)
    backward = _reference_outer(variant, m, covariant_derivative(variant, m, section, i), j, point, step)
    return forward - backward


def _reference_identity_residual(variant, m, point, trials, seed):
    """identity_residual as it was, one point at a time."""
    point = m.chart.require(point)
    n = m.dim
    worst_vector = worst_e = 0.0
    for section in _seeded_sections(m, trials, seed):
        xi = section.at(point)[:n]
        for i in range(n):
            for j in range(i + 1, n):
                measured = _reference_curvature(variant, m, section, i, j, point)
                riemann = m.riemann(point)
                tangent = riemann[:, :, i, j] @ np.asarray(xi, dtype=float)
                sign = -1.0 if variant == "h" else 1.0
                shift = constant_curvature_tensor(m, sign, np.eye(n)[i], np.eye(n)[j], xi, point)
                expected = tangent - shift
                worst_vector = max(worst_vector, float(np.max(np.abs(measured[:n] - expected))))
                worst_e = max(worst_e, abs(float(measured[n])))
    return worst_vector, worst_e


def _identity_bits(values) -> list[int]:
    return np.asarray(values, dtype=float).reshape(-1).view(np.int64).tolist()


_IDENTITY_METRICS = [
    pytest.param(lambda name=name: preset_metric(name), id=name)
    for name in ("hyperbolic3", "sphere3", "half_plane", "sphere2", "conformal_bump", "pseudospherical")
] + [
    pytest.param(lambda dim=dim, seed=seed: random_metric(dim, seed), id=f"random{dim}d{seed}")
    for dim, seed in ((2, 0), (3, 1))
]


@pytest.mark.parametrize("variant", ["h", "s"])
@pytest.mark.parametrize("make", _IDENTITY_METRICS)
def test_stacked_identity_matches_the_point_by_point_loop_bitwise(make, variant):
    m = make()  # a fresh metric: its arrays are compiled anew
    rng = np.random.default_rng(41)
    # below STACK_MIN_POINTS (1, 8, 27 points) g, Gamma, R and the section
    # values run point by point, and the stencils of 8 or more points (5
    # rows each) as columns; at 64 points everything runs as columns.
    # The stacks run first, in this order, so the stacked tapes are built
    # between (or inside) them; the point-by-point loop runs after.
    stacks = [np.array(m.chart.random_points(rng, size)) for size in (1, 8, 27, 64)]
    assert 5 * 8 >= STACK_MIN_POINTS > 27
    stacked = [identity_residual(variant, m, stack, trials=2, seed=3) for stack in stacks]
    for stack, report in zip(stacks, stacked):
        assert report.vector.shape == report.e_component.shape == (len(stack),)
        expected = [
            _reference_identity_residual(variant, m, point, trials=2, seed=3)
            for point in map(tuple, stack.tolist())
        ]
        assert _identity_bits(report.vector) == _identity_bits([v for v, _ in expected])
        assert _identity_bits(report.e_component) == _identity_bits([e for _, e in expected])
        assert _identity_bits(report.worst) == _identity_bits([max(v, e) for v, e in expected])
    point = tuple(stacks[1][3].tolist())
    single = identity_residual(variant, m, point, trials=2, seed=3)
    assert (single.vector, single.e_component) == _reference_identity_residual(
        variant, m, point, trials=2, seed=3
    )
    assert isinstance(single.worst, float)


def test_stacked_bundle_curvature_rows_are_the_point_values_bitwise():
    m = preset_metric("hyperbolic3")
    section = random_section(m.chart, np.random.default_rng(43))
    stack = np.array(list(m.chart.grid(4)))
    value = bundle_curvature("h", m, section, 0, 2, stack, step=0.01)
    assert value.vector.shape == (64, 3) and value.e_component.shape == (64,)
    expected = [_reference_curvature("h", m, section, 0, 2, p, 0.01) for p in stack.tolist()]
    assert _identity_bits(value.vector) == _identity_bits([row[:3] for row in expected])
    assert _identity_bits(value.e_component) == _identity_bits([row[3] for row in expected])


@pytest.mark.parametrize("make", _IDENTITY_METRICS + [
    pytest.param(lambda dim=dim, seed=seed: random_metric(dim, seed), id=f"random{dim}d{seed}")
    for dim, seed in ((2, 2), (2, 3), (3, 0), (3, 2))
])
def test_stacked_model_actions_are_the_point_values_bitwise(make):
    m = make()
    n = m.dim
    rng = np.random.default_rng(47)
    stack = np.array(m.chart.random_points(rng, 40))
    xi, y, z = rng.normal(size=(3, len(stack), n))
    basis = np.eye(n)
    for i, j in [(a, b) for a in range(n) for b in range(a + 1, n)]:
        for variant in ("h", "s"):
            stacked = reference_curvature_action(variant, m, xi, i, j, stack)
            single = [reference_curvature_action(variant, m, xi[k], i, j, p) for k, p in enumerate(stack.tolist())]
            assert stacked.shape == (len(stack), n)
            assert _identity_bits(stacked) == _identity_bits(single)
        # one vector for all points, and one per point
        stacked = constant_curvature_tensor(m, -1.5, basis[i], y, z, stack)
        single = [constant_curvature_tensor(m, -1.5, basis[i], y[k], z[k], p) for k, p in enumerate(stack.tolist())]
        assert _identity_bits(stacked) == _identity_bits(single)
        g = m.metric_at(stack)
        stacked = constant_curvature_action(0.75, g, y, basis[j], z)
        single = [constant_curvature_action(0.75, g[k], y[k], basis[j], z[k]) for k in range(len(stack))]
        assert _identity_bits(stacked) == _identity_bits(single)


def _first_error(fn, *args):
    with pytest.raises(CartanflatError) as err:
        fn(*args)
    return type(err.value), str(err.value)


def _identity_in_turn(variant, m, points):
    """The identity job's chunk evaluation: stacked, replayed in turn."""
    return stacked_or_in_turn(
        lambda chunk: identity_residual(variant, m, chunk, trials=2, seed=0).worst, points
    )


def _reference_identity_loop(variant, m, points):
    return [_reference_identity_residual(variant, m, p, 2, 0) for p in map(tuple, points.tolist())]


def test_a_chunk_whose_stencil_leaves_a_margin_free_chart_fails_as_the_loop_did():
    chart = Chart(("x", "y"), ((-1.0, 1.0), (0.5, 2.0)), margin=0.0)
    m = ChartMetric(chart, [["1 + 0.1 * x^2", "0"], ["0", "y"]])
    grid = np.array(list(chart.grid(3)))  # its corner (-1, 0.5) is on two walls
    expected = _first_error(_reference_identity_loop, "h", m, grid)
    assert expected[0] is StepSizeError and "(-1.0002, 0.5)" in expected[1]
    assert _first_error(_identity_in_turn, "h", m, grid) == expected
    # the first failing point is the fourth, on a wall of the second axis
    # only, while the sixth leaves along the first axis, which the stacked
    # call checks first
    points = np.array(m.chart.random_points(np.random.default_rng(47), 8))
    points[3, 1] = 2.0
    points[5, 0] = 1.0
    expected = _first_error(_reference_identity_loop, "h", m, points)
    assert f"at ({points[3, 0].item()!r}, 2.0001" in expected[1]
    assert _first_error(_identity_in_turn, "h", m, points) == expected
    assert _first_error(identity_residual, "h", m, points) != expected  # the stage order shows


def test_a_stack_below_the_step_floor_raises_below():
    m = preset_metric("half_plane")
    s = _constant_section(m.chart, (1.0, 0.0), 0.0)
    stack = np.array([(0.0, 1.0), (0.1, 1.2)])
    with pytest.raises(StepSizeError, match="below"):
        bundle_curvature("h", m, s, 0, 1, stack, step=1e-12)


def test_a_point_that_fails_two_ways_raises_what_the_loop_raised():
    # at (0, 2) g = diag(x^2 + .., 1) is singular and the y stencil leaves
    # the chart: the loop met Gamma's nonsingular check at its first outer
    # derivative (along x), before it differenced along y
    chart = Chart(("x", "y"), ((-1.0, 1.0), (0.5, 2.0)), margin=0.0)
    m = ChartMetric(chart, [["x^2", "0"], ["0", "1"]])
    point = (0.0, 2.0)
    expected = _first_error(_reference_identity_residual, "h", m, point, 2, 0)
    assert expected[0] is SingularMetricError
    assert _first_error(identity_residual, "h", m, point) == expected
    assert _first_error(identity_residual, "h", m, np.array([point])) == expected
    points = np.array([(0.5, 1.0), point, (0.0, 1.0)])
    assert _first_error(_identity_in_turn, "h", m, points) == expected


# ---------------------------------------------------------------------------
# fiber pairing and compatibility
# ---------------------------------------------------------------------------


def test_pairing_signs():
    m = preset_metric("euclidean2")
    s = np.array([1.0, 0.0, 2.0])
    t = np.array([1.0, 0.0, 3.0])
    assert bundle_pairing("h", m, s, t, (0.0, 0.0)) == pytest.approx(1.0 - 6.0)
    assert bundle_pairing("s", m, s, t, (0.0, 0.0)) == pytest.approx(1.0 + 6.0)


@pytest.mark.parametrize("name", ["half_plane", "sphere2", "conformal_bump", "hyperbolic3"])
@pytest.mark.parametrize("variant", ["h", "s"])
def test_metric_compatibility_residual_small(name, variant):
    m = preset_metric(name)
    rng = np.random.default_rng(23)
    trials = 4 if m.dim == 3 else 8
    for point in m.chart.random_points(rng, 3):
        assert metric_compatibility_residual(variant, m, point, trials=trials, seed=0) <= 1e-9


@pytest.mark.parametrize(
    "name, variant, grid", [("sphere3", "s", 4), ("hyperbolic3", "h", 3), ("half_plane", "h", 9)]
)
def test_stacked_compatibility_rows_equal_point_calls_bitwise(name, variant, grid):
    # 64, 27 and 81 points: stacks above and below the point-by-point cutoff
    m = preset_metric(name)
    points = np.array(list(m.chart.grid(grid)))
    stacked = metric_compatibility_residual(variant, m, points, trials=3, seed=5)
    single = [
        metric_compatibility_residual(variant, m, tuple(p), trials=3, seed=5)
        for p in points.tolist()
    ]
    assert stacked.shape == (len(points),)
    assert stacked.view(np.int64).tolist() == np.array(single).view(np.int64).tolist()


def test_mismatched_connection_breaks_compatibility():
    # pair the "s" pairing with the "h" derivative: the defect is
    # 2 g(X, xi) f_t + 2 g(X, eta) f_s, which is order one here
    m = preset_metric("half_plane")
    s = _constant_section(m.chart, (1.0, 0.0), 1.0)
    t = _constant_section(m.chart, (1.0, 0.0), 1.0)
    point = (0.0, 1.0)
    h = 1e-5
    plus, minus = (0.0 + h, 1.0), (0.0 - h, 1.0)
    lhs = (
        bundle_pairing("s", m, s.at(plus), t.at(plus), plus)
        - bundle_pairing("s", m, s.at(minus), t.at(minus), minus)
    ) / (2 * h)
    rhs = bundle_pairing(
        "s", m, covariant_derivative("h", m, s, 0).at(point), t.at(point), point
    ) + bundle_pairing("s", m, s.at(point), covariant_derivative("h", m, t, 0).at(point), point)
    assert abs(lhs - rhs) >= 1e-2


# ---------------------------------------------------------------------------
# agreement with the frame-gauge matrix
# ---------------------------------------------------------------------------


def test_connection_matrix_helper_passthrough():
    frame = orthonormal_frame(preset_metric("half_plane"))
    form = connection_matrix(frame, "h")
    assert isinstance(form, MatrixOneForm)
    stack = form.at((0.0, 1.0))
    assert stack.shape == (2, 3, 3)
    assert np.allclose(stack[0], [[0.0, -1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], atol=1e-12)


@pytest.mark.parametrize("variant", ["h", "s"])
def test_coordinate_route_matches_frame_route(variant):
    # express nabla_k s in frame components two ways: transport the
    # coordinate-route result with the coframe, or differentiate the frame
    # components and apply the frame-gauge matrix
    m = preset_metric("half_plane")
    frame = orthonormal_frame(m)
    rng = np.random.default_rng(31)
    s = random_section(m.chart, rng)
    hat = [
        add(
            mul(frame.coframe_entries[i][0], s.vector[0]),
            mul(frame.coframe_entries[i][1], s.vector[1]),
        )
        for i in range(2)
    ]
    hat.append(s.scalar)
    for point in m.chart.random_points(rng, 4):
        env = dict(zip(m.chart.names, point))
        theta = frame.coframe_at(point)
        stack = connection_matrix(frame, variant).at(point)
        hat_values = np.array([evaluate(h, env) for h in hat])
        for k in range(2):
            derivative = covariant_derivative(variant, m, s, k).at(point)
            coordinate_route = np.append(theta @ derivative[:2], derivative[2])
            frame_route = (
                np.array([evaluate(differentiate(h, m.chart.names[k]), env) for h in hat])
                + stack[k] @ hat_values
            )
            assert np.allclose(coordinate_route, frame_route, atol=1e-10)
