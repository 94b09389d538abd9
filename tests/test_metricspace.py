"""Chart/metric layer: Christoffel symbols, Riemann tensor, sectional curvature.

The independent oracle here is finite differencing of the metric itself;
symbolic Christoffels must match it, and curvature values must match the
closed forms of the constant-curvature presets.
"""

import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from cartanflat.errors import (
    ChartDomainError,
    DimensionError,
    SingularMetricError,
    StepSizeError,
)
from cartanflat.exprlang import differentiate, evaluate
from cartanflat.metricspace import (
    GRID_CHUNK,
    Chart,
    ChartMetric,
    constant_curvature_tensor,
    grid_scan,
    stacked_or_in_turn,
    worst_point,
)
from cartanflat.presets import get_preset, preset_metric, random_metric

RANDOM_SEEDS = (0, 1, 2, 3, 4)


def fd_christoffel(metric, point, h=1e-5):
    """Independent Christoffel oracle: central differences of the metric."""
    n = metric.dim
    ginv = np.linalg.inv(metric.metric_at(point))
    dg = np.zeros((n, n, n))
    for a in range(n):
        up, down = list(point), list(point)
        up[a] += h
        down[a] -= h
        dg[a] = (metric.metric_at(up) - metric.metric_at(down)) / (2.0 * h)
    gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                gamma[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j]) for l in range(n)
                )
    return gamma


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------


def test_sphere_christoffel_closed_forms():
    m = preset_metric("sphere2")
    theta = math.pi / 4
    gamma = m.christoffel((theta, 1.0))
    assert gamma[0, 1, 1] == pytest.approx(-math.sin(theta) * math.cos(theta), abs=1e-12)
    assert gamma[0, 1, 1] == pytest.approx(-0.5, abs=1e-12)
    assert gamma[1, 0, 1] == pytest.approx(1.0 / math.tan(theta), abs=1e-12)
    assert gamma[1, 0, 1] == pytest.approx(1.0, abs=1e-12)
    assert gamma[0, 0, 0] == 0.0
    assert gamma[0, 0, 1] == 0.0


def test_half_plane_christoffel_closed_forms():
    m = preset_metric("half_plane")
    gamma = m.christoffel((0.0, 2.0))
    assert gamma[0, 0, 1] == pytest.approx(-0.5, abs=1e-13)  # Gamma^x_xy = -1/y
    assert gamma[0, 1, 0] == gamma[0, 0, 1]
    assert gamma[1, 0, 0] == pytest.approx(0.5, abs=1e-13)  # Gamma^y_xx = 1/y
    assert gamma[1, 1, 1] == pytest.approx(-0.5, abs=1e-13)  # Gamma^y_yy = -1/y
    assert gamma[0, 0, 0] == 0.0
    assert gamma[1, 0, 1] == 0.0


def test_euclidean_christoffel_and_riemann_vanish():
    m = preset_metric("euclidean2")
    p = (0.3, -0.4)
    assert np.all(m.christoffel(p) == 0.0)
    assert np.all(m.riemann(p) == 0.0)


@pytest.mark.parametrize("name", ["sphere2", "half_plane", "poincare_disk", "conformal_bump"])
def test_christoffel_matches_fd_oracle_presets(name):
    m = preset_metric(name)
    for point in m.chart.grid(4):
        assert np.allclose(m.christoffel(point), fd_christoffel(m, point), atol=1e-6)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
@pytest.mark.parametrize("dim", [2, 3])
def test_christoffel_matches_fd_oracle_random(dim, seed):
    m = random_metric(dim, seed)
    rng = np.random.default_rng(seed + 100)
    for point in m.chart.random_points(rng, 4):
        assert np.allclose(m.christoffel(point), fd_christoffel(m, point), atol=1e-6)


def test_christoffel_symmetric_in_lower_indices():
    m = random_metric(3, 11)
    gamma = m.christoffel((0.2, -0.3, 0.5))
    assert np.allclose(gamma, np.swapaxes(gamma, 1, 2), atol=0)


# ---------------------------------------------------------------------------
# Riemann tensor and sectional curvature
# ---------------------------------------------------------------------------


def test_sphere_sectional_curvature_gauss_oracle():
    m = preset_metric("sphere2")
    point = (math.pi / 3, 1.2)
    g = m.metric_at(point)
    riemann = m.riemann(point)
    # R_1212 / det(g), the two-index Gauss oracle
    r_1212 = sum(g[l, 0] * riemann[l, 1, 0, 1] for l in range(2))
    k = r_1212 / np.linalg.det(g)
    assert k == pytest.approx(1.0, abs=1e-9)
    assert m.sectional_curvature(point) == pytest.approx(1.0, abs=1e-9)


def test_half_plane_sectional_curvature():
    m = preset_metric("half_plane")
    assert m.sectional_curvature((0.0, 2.0)) == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize(
    "name,expected",
    [("sphere2", 1.0), ("half_plane", -1.0), ("poincare_disk", -1.0)],
)
def test_preset_curvature_on_grid(name, expected):
    m = preset_metric(name)
    for point in m.chart.grid(20):
        assert m.sectional_curvature(point) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("name", ["sphere3", "hyperbolic3"])
def test_three_dimensional_presets_all_planes(name):
    m = preset_metric(name)
    expected = 1.0 if name == "sphere3" else -1.0
    for point in m.chart.grid(3):
        for plane in [(0, 1), (0, 2), (1, 2)]:
            assert m.sectional_curvature(point, plane) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_first_bianchi_and_antisymmetry_random(seed):
    m = random_metric(2 + seed % 2, seed)
    rng = np.random.default_rng(seed)
    for point in m.chart.random_points(rng, 3):
        riemann = m.riemann(point)
        cyclic = riemann + np.transpose(riemann, (0, 2, 3, 1)) + np.transpose(riemann, (0, 3, 1, 2))
        assert np.abs(cyclic).max() < 1e-9
        assert np.abs(riemann + np.transpose(riemann, (0, 1, 3, 2))).max() < 1e-12


@pytest.mark.parametrize("name", ["sphere2", "half_plane", "conformal_bump"])
def test_metricity(name):
    # d_k g_ij = Gamma^l_ki g_lj + Gamma^l_kj g_li  (nabla g = 0)
    m = preset_metric(name)
    names = m.chart.names
    n = m.dim
    for point in m.chart.grid(3):
        env = dict(zip(names, point))
        g = m.metric_at(point)
        gamma = m.christoffel(point)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    dg = evaluate(differentiate(m.entries[i][j], names[k]), env)
                    recon = sum(gamma[l, k, i] * g[l, j] + gamma[l, k, j] * g[i, l] for l in range(n))
                    assert abs(dg - recon) < 1e-9


# ---------------------------------------------------------------------------
# constant-curvature model tensor
# ---------------------------------------------------------------------------


def test_constant_curvature_tensor_examples():
    m = preset_metric("euclidean2")
    p = (0.0, 0.0)
    ex, ey = (1.0, 0.0), (0.0, 1.0)
    out = constant_curvature_tensor(m, -1.0, ex, ey, ey, p)
    assert np.allclose(out, (-1.0, 0.0))
    assert np.all(constant_curvature_tensor(m, 0.0, ex, ey, ey, p) == 0.0)
    assert np.all(constant_curvature_tensor(m, 2.5, ex, ex, ey, p) == 0.0)


def test_constant_curvature_tensor_matches_riemann_on_sphere():
    m = preset_metric("sphere2")
    point = (1.1, 0.7)
    riemann = m.riemann(point)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, y, z = rng.uniform(-1, 1, (3, 2))
        applied = np.einsum("lkij,i,j,k->l", riemann, x, y, z)
        model = constant_curvature_tensor(m, 1.0, x, y, z, point)
        assert np.allclose(applied, model, atol=1e-10)


# ---------------------------------------------------------------------------
# validation and errors
# ---------------------------------------------------------------------------


def test_indefinite_metric_rejected():
    chart = Chart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(SingularMetricError):
        ChartMetric(chart, (("x1", "0"), ("0", "1")))


def test_asymmetric_metric_rejected():
    chart = Chart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        ChartMetric(chart, (("1", "x1"), ("x2", "1")))


def test_wrong_shape_rejected():
    chart = Chart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(DimensionError):
        ChartMetric(chart, (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")))


def test_undeclared_variable_rejected():
    chart = Chart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(Exception) as err:
        ChartMetric(chart, (("1", "0"), ("0", "sin(q)")))
    assert "q" in str(err.value)


def test_out_of_domain_point_rejected():
    m = preset_metric("half_plane")
    with pytest.raises(ChartDomainError):
        m.metric_at((0.0, -1.0))
    with pytest.raises(ChartDomainError):
        m.christoffel((0.0, 6.0))


def test_inverse_at_is_inverse():
    m = random_metric(3, 21)
    p = (0.1, -0.2, 0.3)
    assert np.allclose(m.inverse_at(p) @ m.metric_at(p), np.eye(3), atol=1e-12)


def test_grid_is_row_major_and_respects_margin():
    chart = Chart(("x1", "x2"), ((0.0, 1.0), (0.0, 2.0)), margin=0.1)
    points = list(chart.grid(3))
    assert len(points) == 9
    assert points[0] == (0.1, 0.2)
    assert points[1][0] == 0.1 and points[1][1] > 0.2  # last coordinate fastest
    assert points[-1] == (0.9, 1.8)


def test_grid_scan_chunks_are_the_grid_in_order():
    chart = Chart(("a", "b", "c"), ((0.0, 1.0), (-2.0, 2.0), (1.0, 3.0)))
    chunks = [points for points, _ in grid_scan(chart, 9, lambda points: points)]
    assert [len(c) for c in chunks] == [GRID_CHUNK, 9**3 - GRID_CHUNK]
    points = [tuple(row) for chunk in chunks for row in chunk.tolist()]
    assert points == list(chart.grid(9))  # same floats, same order


def test_stack_with_a_point_outside_the_box_names_that_point():
    m = preset_metric("half_plane")
    stack = np.array([(0.0, 1.0)] * 40 + [(0.5, -1.0)] + [(0.0, 2.0)] * 5)
    with pytest.raises(ChartDomainError, match=r"point \(0\.5, -1\.0\) outside"):
        m.metric_at(stack)
    with pytest.raises(ChartDomainError, match=r"point \(0\.5, -1\.0\) outside"):
        m.riemann(stack)


@pytest.mark.parametrize("name", ["hyperbolic3", "sphere3", "conformal_bump"])
def test_stack_queries_match_point_queries_bitwise(name):
    m = preset_metric(name)
    stack = np.array(m.chart.random_points(np.random.default_rng(5), 40))
    planes = [(i, j) for i in range(m.dim) for j in range(i + 1, m.dim)]
    curvatures = m.sectional_curvatures(stack, planes)
    g, gamma = m.metric_and_christoffel(stack)
    for k, point in enumerate(map(tuple, stack.tolist())):
        for query in (m.metric_at, m.inverse_at, m.christoffel, m.riemann):
            assert np.array_equal(query(stack)[k], query(point))
        assert np.array_equal(g[k], m.metric_at(point))
        assert np.array_equal(gamma[k], m.christoffel(point))
        for column, plane in enumerate(planes):
            assert curvatures[k, column] == m.sectional_curvature(point, plane)


def test_stacked_positive_definiteness_names_the_first_failing_point():
    chart = Chart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)))
    # positive definite at the 4 x 4 construction sample, not near the corners
    m = ChartMetric(chart, (("1", "0"), ("0", "1.7 - x1^2 - x2^2")))
    stack = np.array([(0.025 * k, 0.95) for k in range(40)])
    with pytest.raises(SingularMetricError) as err:
        m.definite_metric_at(stack)
    first = next(p for p in stack.tolist() if 1.7 - p[0] ** 2 - p[1] ** 2 <= 1e-10)
    assert 0 < stack.tolist().index(first) < len(stack) - 1
    assert err.value.point == tuple(first)


def test_metric_and_christoffel_raises_what_christoffel_raises():
    # g is singular on x = 0, where Gamma also divides by det g = 0: the
    # singularity check on g comes first
    m = ChartMetric(Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0))), (("1", "0"), ("0", "x^2")))
    with pytest.raises(SingularMetricError) as alone:
        m.christoffel((0.0, 0.5))
    with pytest.raises(SingularMetricError) as stacked:
        m.metric_and_christoffel(np.array([(0.5, 0.5), (0.0, 0.5), (0.25, 0.0)]))
    assert str(stacked.value) == str(alone.value)


def test_grid_scan_raises_the_error_a_point_by_point_scan_meets_first():
    chart = Chart(("x",), ((0.0, 1.0),), margin=0.0)

    def evaluate(points):
        # one stage at every point, then the next: a later point fails the
        # first stage, an earlier one the second
        x = points[:, 0]
        if (x > 0.85).any():
            raise StepSizeError(f"first stage at {x[x > 0.85][0]}")
        if (x > 0.35).any():
            raise ChartDomainError(f"second stage at {x[x > 0.35][0]}")
        return x

    with pytest.raises(ChartDomainError, match="second stage at 0.4"):
        for _ in grid_scan(chart, 11, evaluate):
            pass


def test_worst_point_keeps_the_first_of_equal_values_across_chunks():
    first = (np.array([[0.0], [1.0], [2.0]]), np.array([0.5, 3.0, 3.0]))
    tie = (np.array([[3.0], [4.0]]), np.array([3.0, float("nan")]))
    assert worst_point([first, tie]) == (3.0, (1.0,), 5)
    larger = (np.array([[5.0]]), np.array([3.5]))
    assert worst_point([first, tie, larger]) == (3.5, (5.0,), 6)
    below_floor = (np.array([[6.0, 7.0]]), np.array([-2.0]))
    assert worst_point([below_floor]) == (-1.0, None, 1)


def test_only_stacked_or_in_turn_replays_a_failing_stack():
    # one replay rule: no other code catches the point errors itself
    package = Path(__file__).resolve().parents[1] / "src" / "cartanflat"
    handlers = [
        (path.name, node.lineno)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and "_POINT_ERRORS" in ast.unparse(node.type)
    ]
    lines, start = inspect.getsourcelines(stacked_or_in_turn)
    assert [name for name, _ in handlers] == ["metricspace.py"]
    assert start < handlers[0][1] < start + len(lines)


def test_symmetry_check_ignores_the_sign_of_a_zero():
    chart = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
    ChartMetric(chart, [["1", "0"], ["-0", "1"]])
    ChartMetric(chart, [["2", "x*y + -0"], ["x*y + 0", "2"]])
    with pytest.raises(ValueError, match=r"entries \(0,1\) and \(1,0\) differ"):
        ChartMetric(chart, [["2", "x*y + 1"], ["x*y + -1", "2"]])
    with pytest.raises(ValueError, match="differ"):
        ChartMetric(chart, [["2", "0*x"], ["0*y", "2"]])


def test_a_preset_refuses_parameters_it_does_not_take():
    assert get_preset("conformal_bump", a=0.5).params == {"a": 0.5}
    with pytest.raises(ValueError, match=r"preset 'sphere2' does not take parameters \['a'\]"):
        get_preset("sphere2", a=0.5)
