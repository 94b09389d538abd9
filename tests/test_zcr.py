"""Sine-Gordon zero-curvature representation."""

import dataclasses
import math

import numpy as np
import pytest

from cartanflat.cartan import gauss_curvature, orthonormal_frame
from cartanflat.errors import DimensionError, SingularMetricError, UnknownIdentifierError
from cartanflat.exprlang import Var
from cartanflat.metricspace import Chart
from cartanflat.presets import KINK_TEXT
from cartanflat.zcr import (
    DEFAULT_BOX,
    SineGordonRep,
    default_chart,
    equivalence_scan,
    induced_metric,
    representation,
)

ETA = np.diag([1.0, 1.0, -1.0])


def _random_fields(count, seed):
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(count):
        a, b, c = rng.uniform(-1.0, 1.0, size=3)
        fields.append(f"{a:.4f} * sin(x1) + {b:.4f} * exp(0.2 * x2) + {c:.4f} * x1 * x2")
    return fields


def test_default_chart_box():
    chart = default_chart()
    assert chart.names == ("x1", "x2")
    assert chart.box == DEFAULT_BOX


def test_triple_closed_form():
    omega1, omega2, phi = representation("x1 + 2 * x2").triple
    point = (0.3, 0.4)
    u = 1.1
    assert np.allclose(omega1.at(point), (math.cos(u / 2), math.cos(u / 2)), atol=1e-15)
    assert np.allclose(omega2.at(point), (math.sin(u / 2), -math.sin(u / 2)), atol=1e-15)
    assert np.allclose(phi.at(point), (-0.5, 1.0), atol=1e-15)


def test_field_validation():
    with pytest.raises(DimensionError):
        SineGordonRep(Chart(("x1", "x2", "x3"), ((-1, 1),) * 3), Var("x1"))
    with pytest.raises(ValueError, match="undeclared"):
        SineGordonRep(default_chart(), Var("q"))
    with pytest.raises(UnknownIdentifierError):
        SineGordonRep(default_chart(), "q * x1")


def test_connection_combines_the_generator_matrices():
    rep = representation("0.4 * x1 * x1 + x2")
    point = (0.7, -0.3)
    omega1, omega2, phi = rep.triple
    generators = (
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
        np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    )
    stacked = rep.connection.at(point)
    for k in range(2):
        want = (
            omega1.at(point)[k] * generators[0]
            + omega2.at(point)[k] * generators[1]
            + phi.at(point)[k] * generators[2]
        )
        assert np.allclose(stacked[k], want, atol=1e-14)


def test_connection_values_lie_in_so21():
    rep = representation(KINK_TEXT)
    rng = np.random.default_rng(3)
    for point in rep.chart.random_points(rng, 6):
        value = rep.connection.value(point, rng.normal(size=2))
        assert np.max(np.abs(value.T @ ETA + ETA @ value)) <= 1e-12


@pytest.mark.parametrize("u_text", _random_fields(3, seed=7))
def test_structure_equations_hold_for_any_field(u_text):
    rep = representation(u_text)
    worst = max(rep.structure_residual(p) for p in rep.chart.grid(5))
    assert worst <= 1e-12


@pytest.mark.parametrize("u_text", _random_fields(3, seed=11))
def test_curvature_residual_equals_pde_residual_pointwise(u_text):
    rep = representation(u_text)
    for point in rep.chart.grid(5):
        assert abs(rep.zcr_residual(point) - abs(rep.pde_residual(point))) <= 1e-12


def test_pde_residual_closed_form():
    rep = representation("x1 * x2")
    got = rep.pde_residual((0.5, 0.5))
    assert abs(got - (1.0 - math.sin(0.25))) <= 1e-15
    assert abs(rep.zcr_residual((0.5, 0.5)) - abs(got)) <= 1e-15


def test_kink_solves_the_equation_everywhere():
    report = equivalence_scan(KINK_TEXT, resolution=9)
    assert report.points == 81
    assert report.max_zcr <= 1e-12
    assert report.max_pde <= 1e-12
    assert report.correlation is None
    assert report.ratio_low is None and report.ratio_high is None


def test_residual_is_finite_on_the_degenerate_line():
    # sin u = 0 along x1 + x2 = 0 for the kink; the metric route breaks
    # there but the connection route just reports the PDE residual
    rep = representation(KINK_TEXT + " + 0.01 * sin(x1) * sin(x2)")
    point = (0.5, -0.5)
    assert rep.zcr_residual(point) <= 0.02
    assert abs(rep.zcr_residual(point) - abs(rep.pde_residual(point))) <= 1e-12


def test_perturbed_kink_scan_tracks_the_pde():
    report = equivalence_scan(KINK_TEXT + " + 0.01 * sin(x1) * sin(x2)", resolution=9)
    assert 0.005 <= report.max_zcr <= 0.02
    assert abs(report.max_zcr - report.max_pde) <= 1e-12
    assert report.correlation is not None and report.correlation >= 0.999
    assert abs(report.ratio_low - 1.0) <= 1e-6
    assert abs(report.ratio_high - 1.0) <= 1e-6


def test_chunked_scan_matches_pointwise_residuals():
    text = "sin(x1) * x2 + 0.3 * x1^2"
    report = equivalence_scan(text, resolution=25)  # 625 points: two chunks
    rep = representation(text)
    points = list(rep.chart.grid(25))
    zcr = [rep.zcr_residual(p) for p in points]
    pde = [abs(rep.pde_residual(p)) for p in points]
    assert report.points == len(points)
    assert report.max_zcr == max(zcr) and report.argmax_zcr == points[zcr.index(max(zcr))]
    assert report.max_pde == max(pde) and report.argmax_pde == points[pde.index(max(pde))]
    assert report.correlation == float(np.corrcoef(zcr, pde)[0, 1])


def test_scan_is_deterministic():
    first = dataclasses.asdict(equivalence_scan("x1 * x2", resolution=7))
    second = dataclasses.asdict(equivalence_scan("x1 * x2", resolution=7))
    assert first == second


def test_induced_metric_entries():
    chart = Chart(("x1", "x2"), ((0.1, 1.2), (0.1, 1.2)))
    m = induced_metric(KINK_TEXT, chart)
    point = (0.5, 0.7)
    u = 4.0 * math.atan(math.exp(1.2))
    assert np.allclose(
        m.metric_at(point), [[1.0, math.cos(u)], [math.cos(u), 1.0]], atol=1e-15
    )


def test_induced_metric_rejects_degenerate_charts():
    with pytest.raises(SingularMetricError):
        induced_metric(KINK_TEXT, default_chart())


@pytest.mark.parametrize("box", [((0.1, 1.2), (0.1, 1.2)), ((-1.2, -0.1), (-1.2, -0.1))])
def test_kink_surface_has_curvature_minus_one(box):
    # on either side of the degenerate line the induced surface is
    # pseudospherical
    chart = Chart(("x1", "x2"), box)
    frame = orthonormal_frame(induced_metric(KINK_TEXT, chart))
    worst = max(abs(gauss_curvature(frame, p) + 1.0) for p in chart.grid(5))
    assert worst <= 1e-9


def test_gauss_curvature_matches_the_pde_combination_off_shell():
    # K = -d1 d2 u / sin u wherever the metric makes sense, solution or not
    chart = Chart(("x1", "x2"), ((0.0, 1.0), (0.0, 1.0)))
    frame = orthonormal_frame(induced_metric("1.2 + 0.4 * x1 * x2", chart))
    for point in chart.grid(4):
        u = 1.2 + 0.4 * point[0] * point[1]
        assert abs(gauss_curvature(frame, point) + 0.4 / math.sin(u)) <= 1e-10
