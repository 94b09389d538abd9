"""Frames, connection forms, structure equations, and the Gauss-curvature route."""

import math

import numpy as np
import pytest

from cartanflat.cartan import (
    OneForm,
    exterior_derivative,
    gauss_curvature,
    orthonormal_frame,
    structural_residual,
    wedge,
)
from cartanflat.errors import DimensionError
from cartanflat.exprlang import differentiate, parse
from cartanflat.metricspace import Chart
from cartanflat.presets import preset_metric, random_metric
from genexpr import random_expression

PRESETS_2D = ["euclidean2", "sphere2", "half_plane", "poincare_disk", "conformal_bump", "pseudospherical"]


# ---------------------------------------------------------------------------
# frame construction
# ---------------------------------------------------------------------------


def test_sphere_frame_closed_form():
    f = orthonormal_frame(preset_metric("sphere2"))
    theta = math.pi / 6
    e = f.frame_at((theta, 1.0))
    # e_1 = d_theta, e_2 = (1/sin theta) d_phi
    assert np.allclose(e, [[1.0, 0.0], [0.0, 2.0]], atol=1e-14)


def test_a_metric_has_one_frame():
    m = preset_metric("sphere2")
    assert orthonormal_frame(m) is orthonormal_frame(m)
    assert orthonormal_frame(m).connection is orthonormal_frame(m).connection
    assert orthonormal_frame(preset_metric("sphere2")) is not orthonormal_frame(m)


def test_half_plane_frame_closed_form():
    f = orthonormal_frame(preset_metric("half_plane"))
    e = f.frame_at((0.0, 2.0))
    assert np.allclose(e, [[2.0, 0.0], [0.0, 2.0]], atol=1e-14)


def test_euclidean_frame_is_identity():
    f = orthonormal_frame(preset_metric("euclidean2"))
    assert np.allclose(f.frame_at((0.2, -0.7)), np.eye(2), atol=0)


@pytest.mark.parametrize("name", PRESETS_2D)
def test_orthonormality_and_duality_on_grid(name):
    m = preset_metric(name)
    f = orthonormal_frame(m)
    for point in m.chart.grid(20):
        e = f.frame_at(point)
        g = m.metric_at(point)
        assert np.allclose(e.T @ g @ e, np.eye(2), atol=1e-10)
        assert np.allclose(f.coframe_at(point) @ e, np.eye(2), atol=1e-10)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_orthonormality_random_metrics(dim):
    for seed in range(3):
        m = random_metric(dim, seed)
        f = orthonormal_frame(m)
        rng = np.random.default_rng(seed)
        for point in m.chart.random_points(rng, 5):
            e = f.frame_at(point)
            g = m.metric_at(point)
            assert np.allclose(e.T @ g @ e, np.eye(dim), atol=1e-10)
            assert np.allclose(f.coframe_at(point) @ e, np.eye(dim), atol=1e-10)


def test_gram_schmidt_is_upper_triangular():
    f = orthonormal_frame(random_metric(3, 5))
    e = f.frame_at((0.1, 0.2, -0.3))
    assert abs(e[1, 0]) == 0.0 and abs(e[2, 0]) == 0.0 and abs(e[2, 1]) == 0.0


# ---------------------------------------------------------------------------
# connection forms
# ---------------------------------------------------------------------------


def test_sphere_phi_closed_form():
    f = orthonormal_frame(preset_metric("sphere2"))
    theta = math.pi / 4
    phi = f.connection.phi  # omega_2^1 = -cos(theta) d_phi
    assert np.allclose(phi.at((theta, 2.0)), [0.0, -math.cos(theta)], atol=1e-12)


def test_half_plane_phi_closed_form():
    f = orthonormal_frame(preset_metric("half_plane"))
    phi = f.connection.phi  # -dx / y
    assert np.allclose(phi.at((0.0, 2.0)), [-0.5, 0.0], atol=1e-12)


def test_euclidean_connection_vanishes():
    f = orthonormal_frame(preset_metric("euclidean2"))
    for i in range(2):
        for j in range(2):
            assert np.allclose(f.connection.omega[i][j].at((0.1, 0.4)), 0.0, atol=0)


@pytest.mark.parametrize("name", ["sphere2", "half_plane", "conformal_bump"])
def test_connection_antisymmetry(name):
    m = preset_metric(name)
    f = orthonormal_frame(m)
    omega = f.connection.omega
    for point in m.chart.grid(5):
        for i in range(2):
            assert np.allclose(omega[i][i].at(point), 0.0, atol=1e-10)
            for j in range(i + 1, 2):
                assert np.allclose(omega[i][j].at(point) + omega[j][i].at(point), 0.0, atol=1e-10)


def test_connection_antisymmetry_random_3d():
    m = random_metric(3, 9)
    f = orthonormal_frame(m)
    omega = f.connection.omega
    point = (0.25, -0.4, 0.1)
    for i in range(3):
        for j in range(3):
            assert np.allclose(omega[i][j].at(point) + omega[j][i].at(point), 0.0, atol=1e-10)


def _torsion(m, points) -> float:
    """max |d theta^j + sum_i omega_i^j /\\ theta^i| over j, the coefficients
    and the points: Cartan's first structure equation, in any dimension."""
    f = orthonormal_frame(m)
    omega, n = f.connection.omega, m.dim
    worst = 0.0
    for j in range(n):
        torsion = exterior_derivative(f.coframe_form(j))
        for i in range(n):
            torsion = torsion + wedge(omega[i][j], f.coframe_form(i))
        worst = max(worst, float(np.abs(torsion.at(points)).max()))
    return worst


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_first_structure_equation_random_metrics(dim):
    for seed in range(3):
        m = random_metric(dim, seed)
        points = np.array(m.chart.random_points(np.random.default_rng(seed), 8))
        assert _torsion(m, points) <= 1e-15


@pytest.mark.parametrize("name", ["euclidean3", "sphere3", "hyperbolic3"])
def test_first_structure_equation_3d_presets(name):
    m = preset_metric(name)
    assert _torsion(m, np.array(list(m.chart.grid(5)))) <= 1e-13


# ---------------------------------------------------------------------------
# exterior derivative and wedge
# ---------------------------------------------------------------------------


def test_exterior_derivative_polar_example():
    chart = preset_metric("sphere2").chart
    form = OneForm(chart, (parse("0", chart.names), parse("-cos(x1)", chart.names)))
    d = exterior_derivative(form)
    theta = math.pi / 6
    assert d.at((theta, 1.0))[0, 1] == pytest.approx(math.sin(theta), abs=1e-14)
    assert d.at((theta, 1.0))[0, 1] == pytest.approx(0.5, abs=1e-14)


def test_exterior_derivative_half_plane_example():
    chart = preset_metric("half_plane").chart
    form = OneForm(chart, (parse("1/x2", chart.names), parse("0", chart.names)))
    d = exterior_derivative(form)
    # (d form)_12 = -d_y (1/y) = 1/y^2
    assert d.at((0.0, 2.0))[0, 1] == pytest.approx(0.25, abs=1e-15)


def test_d_of_d_vanishes_on_random_functions():
    chart = Chart(("x", "y"), ((0.3, 1.7), (0.3, 1.7)))
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(30):
        func = random_expression(rng, chart.names, depth=3)
        df = OneForm(chart, tuple(differentiate(func, n) for n in chart.names))
        dd = exterior_derivative(df)
        for point in chart.grid(3):
            try:
                value = dd.at(point)
            except Exception:
                break
            assert np.abs(value).max() <= 1e-12
        else:
            checked += 1
    assert checked >= 10


def test_wedge_antisymmetry_and_self_annihilation():
    chart = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
    a = OneForm(chart, (parse("x", chart.names), parse("y^2", chart.names)))
    b = OneForm(chart, (parse("sin(y)", chart.names), parse("x*y", chart.names)))
    p = (0.4, -0.3)
    assert np.allclose(wedge(a, b).at(p), -wedge(b, a).at(p), atol=1e-15)
    assert np.allclose(wedge(a, a).at(p), 0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# structure equations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", PRESETS_2D)
def test_structural_residual_small_on_presets(name):
    m = preset_metric(name)
    f = orthonormal_frame(m)
    for point in m.chart.grid(8):
        assert structural_residual(f, point) <= 1e-10


def test_structural_residual_detects_corruption():
    m = preset_metric("half_plane")
    f = orthonormal_frame(m)
    omega1 = f.coframe_form(0)
    omega2 = f.coframe_form(1)
    chart = m.chart
    corrupted_phi = f.connection.phi + OneForm(
        chart, (parse("0.1", chart.names), parse("0", chart.names))
    )
    r1 = exterior_derivative(omega1) - wedge(omega2, corrupted_phi)
    worst = max(abs(r1.at(p)[0, 1]) for p in chart.grid(8))
    assert worst >= 1e-3


def test_structure_ops_reject_3d():
    f = orthonormal_frame(preset_metric("hyperbolic3"))
    with pytest.raises(DimensionError):
        structural_residual(f, (0.0, 0.0, 1.0))
    with pytest.raises(DimensionError):
        gauss_curvature(f, (0.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Gauss curvature (frame route) vs Riemann route
# ---------------------------------------------------------------------------


def test_gauss_curvature_sphere_and_half_plane():
    f = orthonormal_frame(preset_metric("sphere2"))
    assert gauss_curvature(f, (math.pi / 3, 2.0)) == pytest.approx(1.0, abs=1e-9)
    f = orthonormal_frame(preset_metric("half_plane"))
    assert gauss_curvature(f, (1.0, 0.5)) == pytest.approx(-1.0, abs=1e-9)


def test_conformal_bump_curvature_closed_form():
    # K = -e^{-2 lambda} (Laplacian lambda); at the origin K = 1.2 e^{-0.6}
    f = orthonormal_frame(preset_metric("conformal_bump"))
    expected = 1.2 * math.exp(-0.6)
    assert expected == pytest.approx(0.6586, abs=5e-5)
    assert gauss_curvature(f, (0.0, 0.0)) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("name", PRESETS_2D)
def test_gauss_route_matches_riemann_route_presets(name):
    m = preset_metric(name)
    f = orthonormal_frame(m)
    for point in m.chart.grid(8):
        assert gauss_curvature(f, point) == pytest.approx(
            m.sectional_curvature(point), abs=1e-8
        )


@pytest.mark.parametrize("seed", range(5))
def test_gauss_route_matches_riemann_route_random(seed):
    m = random_metric(2, seed)
    f = orthonormal_frame(m)
    for point in m.chart.grid(5):
        assert gauss_curvature(f, point) == pytest.approx(
            m.sectional_curvature(point), abs=1e-8
        )
