"""Acceptance gate: one test per headline claim, with pinned tolerances.

Each test prints a one-line summary after its assertions so a verbose run
reads as a checklist.  Tolerances here are deliberately looser than the
module tests; they state what the package promises, not the best the
implementation happens to achieve on a good day.
"""

import json
import math

import numpy as np

from cartanflat.bundle import identity_residual, metric_compatibility_residual
from cartanflat.cartan import gauss_curvature, orthonormal_frame, structural_residual
from cartanflat.cli import main
from cartanflat.exprlang import parse, to_text
from cartanflat.metricspace import Chart, ChartMetric
from cartanflat.presets import (
    KINK_TEXT,
    preset_metric,
    random_metric,
    two_dim_preset_names,
)
from cartanflat.sasaki import (
    commutator,
    connection_matrix,
    flatness_scan,
    lie_basis,
    sasaki_form,
)
from cartanflat.transport import (
    circle_curve,
    develop_cloud,
    holonomy,
    quadric_pairing,
    quadric_residual_of,
)
from cartanflat.zcr import equivalence_scan, induced_metric

from genexpr import check_derivative_against_fd, random_expression


def _hyperbolic_distance(p, q):
    return math.acosh(1.0 + ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2) / (2.0 * p[1] * q[1]))


def _spherical_distance(p, q):
    cos_d = math.cos(p[0]) * math.cos(q[0]) + math.sin(p[0]) * math.sin(q[0]) * math.cos(
        p[1] - q[1]
    )
    return math.acos(max(-1.0, min(1.0, cos_d)))


def _diagonal_metric(box, diagonal) -> ChartMetric:
    names = tuple(f"x{k + 1}" for k in range(len(box)))
    rows = [[d if i == j else "0" for j in range(len(box))] for i, d in enumerate(diagonal)]
    return ChartMetric(Chart(names, box), rows)


def _polar_sphere(n: int) -> ChartMetric:
    """The unit n-sphere, g = diag(1, sin^2 x1, sin^2 x1 sin^2 x2, ...)."""
    squares = [f"sin(x{k + 1})^2" for k in range(n - 1)]
    diagonal = ["1"] + ["*".join(squares[:k]) for k in range(1, n)]
    return _diagonal_metric(((0.3, 2.8),) * (n - 1) + ((0.0, 6.2),), diagonal)


def _half_space(n: int) -> ChartMetric:
    """Hyperbolic n-space, g = delta / x_n^2."""
    return _diagonal_metric(((-1.0, 1.0),) * (n - 1) + ((0.5, 2.0),), [f"1/x{n}^2"] * n)


#: charts of dimension 4 and 5, built inline: no preset has them
_INLINE_METRICS = {
    "sphere4": lambda: _polar_sphere(4),
    "half_space4": lambda: _half_space(4),
    "half_space5": lambda: _half_space(5),
}


def test_acceptance_1_flatness_iff_constant_curvature():
    flat_cases = {
        "h": (
            ("half_plane", 20), ("poincare_disk", 20), ("hyperbolic3", 8),
            ("half_space4", 6), ("half_space5", 6),
        ),
        "s": (("sphere2", 20), ("sphere3", 8), ("sphere4", 6)),
    }
    worst_flat = 0.0
    weakest_off = math.inf
    for variant, cases in flat_cases.items():
        other = "s" if variant == "h" else "h"
        for name, grid in cases:
            metric = _INLINE_METRICS[name]() if name in _INLINE_METRICS else preset_metric(name)
            flat = flatness_scan(metric, variant, resolution=grid).max_residual
            off = flatness_scan(metric, other, resolution=max(4, grid // 2)).max_residual
            assert flat <= 1e-6, f"{name} {variant}: residual {flat}"
            assert off >= 0.5, f"{name} {other}: residual {off} should be large"
            worst_flat = max(worst_flat, flat)
            weakest_off = min(weakest_off, off)
    for variant in ("h", "s"):
        off = flatness_scan(preset_metric("euclidean2"), variant, resolution=10).max_residual
        assert abs(off - 1.0) <= 1e-9  # curvature 0 sits at distance 1 from both
        weakest_off = min(weakest_off, off)
    print(
        f"acceptance 1 flatness<->curvature: worst flat residual {worst_flat:.3e} "
        f"(tol 1e-6), weakest non-flat residual {weakest_off:.3f} (floor 0.5) -> PASS"
    )


def test_acceptance_2_curvature_identity_on_the_bundle():
    rng = np.random.default_rng(2208)
    worst_vector = 0.0
    worst_e = 0.0
    metrics = [random_metric(2, seed) for seed in (11, 12, 13)]
    metrics += [random_metric(3, seed) for seed in (14, 15)]
    for metric in metrics:
        for variant in ("h", "s"):
            for point in metric.chart.random_points(rng, 2):
                residual = identity_residual(variant, metric, point, trials=10, seed=7)
                assert residual.vector <= 1e-5
                assert residual.e_component <= 1e-6
                worst_vector = max(worst_vector, residual.vector)
                worst_e = max(worst_e, residual.e_component)
    print(
        f"acceptance 2 bundle curvature identity: 5 random metrics x 2 variants x "
        f"10 sections, worst vector {worst_vector:.3e} (tol 1e-5), "
        f"worst e-part {worst_e:.3e} (tol 1e-6) -> PASS"
    )


def test_acceptance_3_connections_preserve_the_pairing():
    cases = (("half_plane", 4, 7), ("sphere2", 4, 7), ("conformal_bump", 4, 7), ("hyperbolic3", 3, 4))
    worst = 0.0
    checked = 0
    for name, grid, trials in cases:
        metric = preset_metric(name)
        points = list(metric.chart.grid(grid))
        assert len(points) * trials >= 100
        for variant in ("h", "s"):
            for point in points:
                residual = metric_compatibility_residual(
                    variant, metric, point, trials=trials, seed=3
                )
                assert residual <= 1e-9
                worst = max(worst, residual)
                checked += trials
    print(
        f"acceptance 3 metric compatibility: {checked} section pairs, "
        f"worst residual {worst:.3e} (tol 1e-9) -> PASS"
    )


def test_acceptance_4_structure_equations_and_gauss():
    metrics = [preset_metric(name) for name in two_dim_preset_names()]
    metrics += [random_metric(2, seed) for seed in (21, 22, 23, 24, 25)]
    worst_structural = 0.0
    worst_gauss = 0.0
    for metric in metrics:
        frame = orthonormal_frame(metric)
        for point in metric.chart.grid(20):
            structural = structural_residual(frame, point)
            gauss_gap = abs(gauss_curvature(frame, point) - metric.sectional_curvature(point))
            assert structural <= 1e-10
            assert gauss_gap <= 1e-8
            worst_structural = max(worst_structural, structural)
            worst_gauss = max(worst_gauss, gauss_gap)
    print(
        f"acceptance 4 structure equations: {len(metrics)} metrics x 400 points, "
        f"worst structure residual {worst_structural:.3e} (tol 1e-10), "
        f"worst Gauss-vs-Riemann gap {worst_gauss:.3e} (tol 1e-8) -> PASS"
    )


def test_acceptance_5_lie_algebra_bases():
    eta = np.diag([1.0, 1.0, -1.0])
    for name, first_sign in (("sl2", 1.0), ("so21", 1.0), ("so3", -1.0)):
        basis = lie_basis(name)
        m1, m2, m3 = basis.matrices
        assert np.array_equal(commutator(m1, m2), first_sign * m3)
        assert np.array_equal(commutator(m2, m3), -m1)
        assert np.array_equal(commutator(m3, m1), -m2)
    frame = orthonormal_frame(preset_metric("half_plane"))
    h_form = connection_matrix(frame, "h")
    s_form = connection_matrix(frame, "s")
    layout = sasaki_form(frame, lie_basis("so21"))
    rng = np.random.default_rng(5)
    worst_algebra = 0.0
    worst_layout = 0.0
    for point in frame.metric.chart.random_points(rng, 8):
        velocity = rng.normal(size=2)
        h_val = h_form.value(point, velocity)
        s_val = s_form.value(point, velocity)
        worst_algebra = max(
            worst_algebra,
            float(np.max(np.abs(h_val.T @ eta + eta @ h_val))),
            float(np.max(np.abs(s_val + s_val.T))),
        )
        worst_layout = max(
            worst_layout, float(np.max(np.abs(layout.at(point) - h_form.at(point))))
        )
    assert worst_algebra <= 1e-12
    assert worst_layout <= 1e-10
    print(
        f"acceptance 5 Lie bases: commutator tables exact, algebra constraints "
        f"{worst_algebra:.3e} (tol 1e-12), generator layout vs block layout "
        f"{worst_layout:.3e} (tol 1e-10) -> PASS"
    )


def test_acceptance_6_developing_maps_realize_the_models():
    rng = np.random.default_rng(17)

    hyper = preset_metric("half_plane")
    points = hyper.chart.random_points(rng, 20)
    cloud = develop_cloud("h", hyper, (0.0, 1.0), points)
    quadric_h = quadric_residual_of("h", cloud)
    assert quadric_h <= 1e-7
    worst_pairing = 0.0
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            got = quadric_pairing("h", cloud[a], cloud[b])
            want = -math.cosh(_hyperbolic_distance(points[a], points[b]))
            worst_pairing = max(worst_pairing, abs(got - want))
    assert worst_pairing <= 1e-5

    sphere = preset_metric("sphere2")
    s_points = sphere.chart.random_points(rng, 20)
    s_cloud = develop_cloud("s", sphere, (math.pi / 2, 3.0), s_points)
    quadric_s = quadric_residual_of("s", s_cloud)
    assert quadric_s <= 1e-7
    worst_s = 0.0
    for a in range(len(s_points)):
        for b in range(a + 1, len(s_points)):
            got = quadric_pairing("s", s_cloud[a], s_cloud[b])
            want = math.cos(_spherical_distance(s_points[a], s_points[b]))
            worst_s = max(worst_s, abs(got - want))
    assert worst_s <= 1e-5

    worst_loop = 0.0
    for _ in range(10):
        center = (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(1.5, 3.0)))
        radius = float(rng.uniform(0.1, 0.4))
        gap = np.max(np.abs(holonomy("h", hyper, circle_curve(hyper.chart, center, radius)) - np.eye(3)))
        worst_loop = max(worst_loop, float(gap))
    assert worst_loop <= 1e-6

    print(
        f"acceptance 6 developing maps: quadric residuals {quadric_h:.3e}/{quadric_s:.3e} "
        f"(tol 1e-7), 190 pair distances worst {max(worst_pairing, worst_s):.3e} (tol 1e-5), "
        f"10 flat loops worst {worst_loop:.3e} (tol 1e-6) -> PASS"
    )


def test_acceptance_7_sine_gordon_zero_curvature():
    kink = equivalence_scan(KINK_TEXT, resolution=21)
    assert kink.points == 441
    assert kink.max_zcr <= 1e-8
    assert kink.max_pde <= 1e-8

    perturbations = (
        " + 0.01 * sin(x1) * sin(x2)",
        " + 0.02 * cos(x1)",
        " + 0.01 * x1",
        " + 0.005 * sin(2 * x1 + x2)",
        " - 0.02 * x1 * x2 * 0.1",
    )
    weakest_residual = math.inf
    weakest_corr = math.inf
    for tail in perturbations:
        report = equivalence_scan(KINK_TEXT + tail, resolution=11)
        assert report.max_zcr >= 1e-4
        assert report.max_pde >= 1e-4
        assert report.correlation is not None and report.correlation > 0.9
        assert abs(report.ratio_low - 1.0) <= 1e-6
        assert abs(report.ratio_high - 1.0) <= 1e-6
        weakest_residual = min(weakest_residual, report.max_zcr)
        weakest_corr = min(weakest_corr, report.correlation)

    # both sides of the degenerate line x1 + x2 = 0; |sin u| >= 0.35 on
    # these boxes so the induced metric is safely nondegenerate
    worst_gauss = 0.0
    for box in (((0.1, 1.2), (0.1, 1.2)), ((-1.2, -0.1), (-1.2, -0.1))):
        chart = Chart(("x1", "x2"), box)
        frame = orthonormal_frame(induced_metric(KINK_TEXT, chart))
        for point in chart.grid(5):
            worst_gauss = max(worst_gauss, abs(gauss_curvature(frame, point) + 1.0))
    assert worst_gauss <= 1e-9

    print(
        f"acceptance 7 sine-Gordon: kink residual {kink.max_zcr:.3e} (tol 1e-8) on 441 "
        f"points, 5 perturbations detected (weakest {weakest_residual:.3e}, correlation "
        f">= {weakest_corr:.4f}), Gauss curvature -1 within {worst_gauss:.3e} -> PASS"
    )


def test_acceptance_8_expression_engine_and_cli(tmp_path, capsys):
    rng = np.random.default_rng(2208)
    usable = 0
    for _ in range(1000):
        expression = random_expression(rng, ("x", "y"), depth=4)
        assert parse(to_text(expression), ("x", "y")) == expression
        if check_derivative_against_fd(expression, ("x", "y"), rng):
            usable += 1
    assert usable >= 400  # the domain filter must not eat the sample

    argv = ["flatness", "--preset", "half_plane", "--variant", "h", "--grid", "8"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    stable = lambda text: [l for l in text.splitlines() if "wall_time_s" not in l]
    assert stable(first) == stable(second)

    assert main(["flatness", "--preset", "half_plane", "--variant", "s", "--grid", "8"]) == 1
    fail_report = json.loads(capsys.readouterr().out)
    assert 1.9 <= fail_report["max_residual"] <= 2.1

    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"preset": "half_plane", "variant": "h", "gird": 4}))
    assert main(["flatness", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "$.gird" in err

    print(
        f"acceptance 8 expression engine and CLI: 1000 AST round-trips, "
        f"{usable} derivative spot-checks against central differences, CLI exit "
        f"codes 0/1/2 and deterministic reports -> PASS"
    )
