"""Chart/metric layer: Christoffel symbols, Riemann tensor, sectional curvature.

The independent oracle here is finite differencing of the metric itself;
symbolic Christoffels must match it, and curvature values must match the
closed forms of the constant-curvature presets.
"""

import ast
import functools
import inspect
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from cartanflat import cli, metricspace, sasaki
from cartanflat.bundle import bundle_pairing
from cartanflat.errors import (
    ChartDomainError,
    DimensionError,
    ExpressionDomainError,
    SingularMetricError,
    StepSizeError,
)
from cartanflat.exprlang import (
    STACK_MIN_POINTS,
    Binary,
    Const,
    Var,
    call,
    differentiate,
    evaluate,
    mul,
    variables_of,
)
from cartanflat.metricspace import (
    GRID_CHUNK,
    Chart,
    ChartMetric,
    ExprArray,
    _definite_by_lapack,
    _nonsingular_by_lapack,
    constant_curvature_tensor,
    grid_scan,
    stacked_or_in_turn,
    worst_point,
)
from cartanflat.presets import PRESET_NAMES, get_preset, preset_metric, random_metric
from cartanflat.sasaki import flatness_scan
from cartanflat.transport import circle_curve, develop_cloud, holonomy
from test_cli import _DIPPING_METRIC

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


def test_undeclared_variable_in_a_built_entry_names_the_first_such_entry():
    chart = Chart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)))
    z = Var("z")
    with pytest.raises(ValueError) as err:
        ChartMetric(chart, ((1.0, z), (z, Var("q") + Var("x2"))))
    assert str(err.value) == "metric entry (0,1) uses undeclared variables ['z']"


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


@pytest.mark.parametrize("scale", ["1e160", "1e300"])
def test_a_metric_beyond_the_float_range_is_refused_at_its_point(monkeypatch, scale):
    chart = Chart(("x", "y"), ((1.0, 2.0), (1.0, 2.0)))
    entries = ((f"{scale}*x", "0"), ("0", f"{scale}*y"))
    # the build-time sample checks g as every scan does: its first point fails
    with pytest.raises(SingularMetricError) as built:
        ChartMetric(chart, entries)
    assert str(built.value) == "metric determinant is beyond the float range at point (1.05, 1.05)"
    # past the sample, each point query still refuses at its own point
    monkeypatch.setattr(ChartMetric, "_check_positive_definite", lambda self: None)
    m = ChartMetric(chart, entries)
    stack = np.array([(1.5, 1.5), (1.25, 1.75)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning included
        with pytest.raises(SingularMetricError) as alone:
            m.inverse_at((1.5, 1.5))
        with pytest.raises(SingularMetricError) as stacked:
            m.riemann(stack)
    assert str(alone.value) == str(stacked.value)
    assert str(alone.value) == "metric determinant is beyond the float range at point (1.5, 1.5)"


def test_a_finite_determinant_under_an_overflowing_scale_is_refused():
    # max |g| squared overflows, det g (1e155 * 1e140) does not
    g = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1e155, 1e155], [1e155, 1e155 + 1e140]]])
    assert math.isfinite(float(np.linalg.det(g[1])))
    with pytest.raises(SingularMetricError, match="beyond the float range") as err:
        _nonsingular_by_lapack(g, np.array([[0.0], [1.0]]))
    assert err.value.point == (1.0,)


def _singular_by_the_finite_rule(g) -> list[bool]:
    """abs(det g) < 1e-12 max|g|^n, matrix by matrix, over Python floats."""
    n = g.shape[-1]
    dets = np.linalg.det(g).tolist()
    scales = np.abs(g).max(axis=(1, 2)).tolist()
    return [abs(det) < 1e-12 * max(scale, 1e-300) ** n for det, scale in zip(dets, scales)]


@pytest.mark.parametrize("n", [2, 3])
def test_singularity_decisions_where_everything_is_finite_are_unchanged(n):
    rng = np.random.default_rng(100 + n)
    # random symmetric matrices over 160 orders of magnitude, and rank-one
    # ones plus a multiple of the identity straddling the tolerance
    a = rng.normal(size=(200, n, n))
    spread = (a + a.transpose(0, 2, 1)) * 10.0 ** rng.uniform(-80, 80, (200, 1, 1))
    v = rng.normal(size=(200, n, 1))
    ones = v @ v.transpose(0, 2, 1)
    ratio = 10.0 ** (rng.uniform(-15, -9, (200, 1, 1)) / (n - 1))
    near = (ones + ratio * np.abs(ones).max(axis=(1, 2), keepdims=True) * np.eye(n)) * 10.0 ** rng.uniform(
        -60, 60, (200, 1, 1)
    )
    assert 0 < sum(_singular_by_the_finite_rule(near)) < len(near)
    for g in (spread, near):
        expected = _singular_by_the_finite_rule(g)
        decided = []
        for k in range(len(g)):
            try:
                _nonsingular_by_lapack(g[k], (float(k),))
                decided.append(False)
            except SingularMetricError as exc:
                assert str(exc) == f"metric is singular to tolerance at point ({float(k)},)"
                decided.append(True)
        assert decided == expected
        points = np.arange(len(g), dtype=float)[:, None]
        if any(expected):
            with pytest.raises(SingularMetricError) as err:
                _nonsingular_by_lapack(g, points)
            assert err.value.point == (float(expected.index(True)),)
        else:
            _nonsingular_by_lapack(g, points)


def _nonsingular_in_turn(g):
    """The per-point rule of _nonsingular_by_lapack over Python floats: None, or
    the message and index of the first matrix it refuses."""
    n = g.shape[-1]
    with np.errstate(all="ignore"):
        dets = np.linalg.det(g).tolist()
    for k, (scale, det) in enumerate(zip(np.abs(g).max(axis=(1, 2)).tolist(), dets)):
        try:
            volume = max(scale, 1e-300) ** n
        except OverflowError:
            volume = math.inf
        if not 1e-12 * volume <= abs(det) < math.inf:
            finite = math.isfinite(det) and volume < math.inf
            return ("metric is singular to tolerance" if finite else
                    "metric determinant is beyond the float range"), k
    return None


def _definite_in_turn(g):
    """The per-point rule of _definite_by_lapack: None, or the message and index
    of the first matrix it refuses."""
    for k, value in enumerate(np.linalg.eigvalsh(g).min(axis=-1).tolist()):
        if value <= 1e-10:
            return f"metric is not positive definite (min eigenvalue {value:.3e})", k
    return None


def _guard_stacks(n: int, count: int):
    """Seeded stacks of 1 to 6 symmetric n x n matrices: random ones over 320
    orders of magnitude, rank-one ones plus a perturbation near the
    singularity threshold (det about 1e-12 scale^n), positive definite ones
    near the eigenvalue threshold, and any of them with NaN, +-inf or +-0
    entries poisoned in."""
    rng = np.random.default_rng(1000 + n)
    specials = (math.nan, math.inf, -math.inf, 0.0, -0.0)
    for _ in range(count):
        kind, m = rng.integers(3), rng.integers(1, 7)
        scale = 10.0 ** rng.uniform(-160, 160, (m, 1, 1))
        if kind == 0:
            a = rng.normal(size=(m, n, n))
            g = (a + a.transpose(0, 2, 1)) * scale
        elif kind == 1:
            v = rng.normal(size=(m, n, 1))
            ones = v @ v.transpose(0, 2, 1)
            ratio = 10.0 ** (rng.uniform(-13, -11, (m, 1, 1)) / max(n - 1, 1))
            g = (ones + ratio * np.abs(ones).max(axis=(1, 2), keepdims=True) * np.eye(n)) * scale
        else:  # rank n - 1 plus a small multiple of the identity
            a = rng.normal(size=(m, n, n - 1))
            g = a @ a.transpose(0, 2, 1) + 10.0 ** rng.uniform(-11, -9, (m, 1, 1)) * np.eye(n)
        for _ in range(rng.integers(3)):
            k, i, j = rng.integers(m), rng.integers(n), rng.integers(n)
            g[k, i, j] = g[k, j, i] = specials[rng.integers(len(specials))]
        yield g


def _outcome(check, g, points):
    try:
        check(g, points)
    except (SingularMetricError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc), getattr(exc, "point", None)
    return None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_guards_decide_each_stack_as_their_per_point_loops(n):
    refused = {"nonsingular": 0, "definite": 0, "beyond": 0}
    stacks = list(_guard_stacks(n, 700))
    # the 1e300 metric, diag(1e300 x, ...): for n >= 2 its determinant
    # leaves the float range
    huge = np.array([np.diag(np.full(n, 1e300 * (k + 1.0))) for k in range(6)])
    assert (_nonsingular_in_turn(huge) is None) == (n == 1)
    stacks.append(huge)
    if n > 1:  # a determinant that overflows where max|g|^n does not
        signs = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])[:n, :n]
        scale = {2: 1.3e154, 3: 5e102}[n]
        overflowing = np.array([np.eye(n), scale * signs])
        assert math.isfinite(scale**n) and _nonsingular_in_turn(overflowing)[1] == 1
        stacks.append(overflowing)
    for g in stacks:
        points = np.arange(len(g), dtype=float)[:, None]
        for name, check, in_turn in (
            ("nonsingular", _nonsingular_by_lapack, _nonsingular_in_turn),
            ("definite", _definite_by_lapack, _definite_in_turn),
        ):
            try:
                want = in_turn(g)
            except np.linalg.LinAlgError as exc:
                assert _outcome(check, g, points) == (type(exc), str(exc), None)
                continue
            got = _outcome(check, g, points)
            # the whole-stack check passes the stacks the per-point rule
            # passes (a NaN eigenvalue among them), with its message and point
            if want is None:
                assert got is None
            else:
                message, k = want
                assert got == (SingularMetricError, f"{message} at point ({float(k)},)", (float(k),))
                refused[name] += 1
                refused["beyond"] += "beyond" in message
    assert all(count > 30 for count in refused.values()), refused
    assert refused["nonsingular"] < len(stacks) - 40 and refused["definite"] < len(stacks) - 40


def _rotated(q, eigenvalues):
    """q diag(eigenvalues) q^T made exactly symmetric: for a random
    orthogonal q, a non-diagonal matrix with about those eigenvalues."""
    g = (q * eigenvalues) @ q.T
    return np.triu(g) + np.triu(g, 1).T


def _near_threshold_matrices(n: int) -> list:
    """Seeded symmetric n x n matrices: the lowest eigenvalue at 1e-10
    times 1 +- 10^-k (k = 1..12), 1, 2, 4, 10, 100 or 1e4, with the other
    eigenvalues equal (where the certificate's bound is tightest) or
    spread; |det| at 1e-12 s^n times the same factors, scaled exactly by
    2^p to a largest entry s from about 1e-120 to 1e120; indefinite and
    negative definite ones at those scales; and some of each with a NaN or
    +-inf entry, or with a large entry below the diagonal that its mirror
    above does not match."""
    rng = np.random.default_rng(2200 + n)
    factors = [1.0 + sign * 10.0**-k for k in range(1, 13) for sign in (1.0, -1.0)]
    factors += [1.0, 2.0, 4.0, 10.0, 100.0, 1e4]
    out = []
    for factor in factors:
        for _ in range(3):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            mu = 10.0 ** rng.uniform(-2, 1)
            spread = 10.0 ** rng.uniform(0, 1, n - 1) if rng.integers(2) else np.ones(n - 1)
            out.append(_rotated(q, np.r_[1e-10 * factor, mu * spread]))
            if n > 1:  # the small eigenvalue barely moves s
                others = 10.0 ** rng.uniform(-0.5, 0.5, n - 1)
                s = np.abs(_rotated(q, np.r_[0.0, others])).max()
                small = 1e-12 * factor * s**n / np.prod(others)
                out.append(np.ldexp(_rotated(q, np.r_[small, others]), int(rng.integers(-400, 400))))
    for _ in range(24):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigenvalues = 10.0 ** rng.uniform(-3, 3, n) * rng.choice((-1.0, 1.0), n)
        if n > 1:
            eigenvalues[:2] = np.abs(eigenvalues[:2]) * (1.0, -1.0)  # indefinite
        out.append(np.ldexp(_rotated(q, eigenvalues), int(rng.integers(-400, 400))))
        out.append(np.ldexp(_rotated(q, -np.abs(eigenvalues)), int(rng.integers(-400, 400))))
    bad = (math.nan, math.inf, -math.inf) + (("asymmetric",) if n > 1 else ())
    for g, special in zip(out[::5], itertools.cycle(bad)):
        g = g.copy()
        i, j = rng.integers(n), rng.integers(n)
        if special == "asymmetric":  # eigvalsh reads g[j, i], i < j: indefinite there
            i, j = (0, 1) if i == j else sorted((i, j))
            g[j, i] = -10.0 * np.abs(g).max() * (1.0 if g[i, j] >= 0.0 else -1.0)
        else:
            g[i, j] = g[j, i] = special
        out.append(g)
    return out


def _expected(in_turn, g):
    """What the check of a per-point rule raises on the stack g at points
    0, 1, ...: None, or the error's type, message and point."""
    try:
        want = in_turn(g)
    except np.linalg.LinAlgError as exc:
        return type(exc), str(exc), None
    if want is None:
        return None
    message, k = want
    return SingularMetricError, f"{message} at point ({float(k)},)", (float(k),)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_certificate_decides_near_the_thresholds_as_the_per_point_loops(monkeypatch, n):
    """Each probe of _near_threshold_matrices alone (the certificate on
    Python floats) and in place of one of 24 comfortable matrices (on numpy
    columns): both LAPACK routes and _check_metric raise what the per-point rules
    raise, with the same message and point."""
    decisions = []
    certified = metricspace._certified
    monkeypatch.setattr(metricspace, "_certified", lambda g: decisions.append(certified(g)) or decisions[-1])
    rng = np.random.default_rng(2300 + n)
    rotations = [np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(24)]
    comfortable = [_rotated(q, np.arange(1.0, n + 1.0)) for q in rotations]
    assert 1 < metricspace._CERTIFY_STACK_MIN <= len(comfortable)  # both paths run
    passed = {"alone": 0, "among": 0}
    for k, probe in enumerate(_near_threshold_matrices(n)):
        among = np.array(comfortable)
        among[k % len(among)] = probe
        for where, g in (("alone", probe[None]), ("among", among)):
            points = np.arange(len(g), dtype=float)[:, None]
            nonsingular = _expected(_nonsingular_in_turn, g)
            definite = _expected(_definite_in_turn, g)
            for check, want in ((_nonsingular_by_lapack, nonsingular), (_definite_by_lapack, definite)):
                assert _outcome(check, g, points) == want
            decisions.clear()
            assert _outcome(metricspace._check_metric, g, points) == (nonsingular or definite)
            passed[where] += decisions == [True]
    # the certificate decided many of them itself, but not for n = 4
    assert all((count > 10) == (n <= 3) for count in passed.values()), passed


def test_jobs_on_good_metrics_never_reach_the_lapack_guards(monkeypatch):
    """With np.linalg.det and eigvalsh raising, metrics still build (the
    4^n sample), flatness scans, a develop cloud and a holonomy loop still
    pass: the certificate decides every stack of theirs, so a silent
    fall-back to LAPACK fails here."""

    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK guard ran on a comfortable metric")

    monkeypatch.setattr(metricspace.np.linalg, "det", refuse)
    monkeypatch.setattr(metricspace.np.linalg, "eigvalsh", refuse)
    report = flatness_scan(preset_metric("sphere3"), "s", 6)
    assert report.points == 6**3 and report.max_residual < 1e-10
    base, targets = (0.0, 0.0, 1.0), [(0.5, -0.3, 1.5), (-0.8, 0.2, 0.7), (0.1, 0.9, 2.0), (-0.4, -0.6, 1.2)]
    rows = develop_cloud("h", preset_metric("hyperbolic3"), base, targets, steps_per_unit=64)
    assert rows.shape == (4, 4) and np.isfinite(rows).all()
    half_plane = preset_metric("half_plane")
    loop = holonomy("h", half_plane, circle_curve(half_plane.chart, (0.0, 2.0), 1.0, 64))
    assert np.abs(loop - np.eye(3)).max() < 1e-6


def test_grid_is_row_major_and_respects_margin():
    chart = Chart(("x1", "x2"), ((0.0, 1.0), (0.0, 2.0)), margin=0.1)
    points = list(chart.grid(3))
    assert len(points) == 9
    assert points[0] == (0.1, 0.2)
    assert points[1][0] == 0.1 and points[1][1] > 0.2  # last coordinate fastest
    assert points[-1] == (0.9, 1.8)


def test_grid_scan_chunks_are_the_grid_in_order():
    cases = [  # box, resolution, chunk sizes
        (((0.0, 1.0),), 700, [GRID_CHUNK, 700 - GRID_CHUNK]),
        (((-1.0, 0.3),), 2, [2]),
        (((0.0, 1.0), (-3.0, 7.0)), 30, [GRID_CHUNK, 900 - GRID_CHUNK]),
        (((0.0, 1.0), (-2.0, 2.0), (1.0, 3.0)), 8, [GRID_CHUNK]),  # exactly one chunk
        (((0.0, 1.0), (-2.0, 2.0), (1.0, 3.0)), 9, [GRID_CHUNK, 9**3 - GRID_CHUNK]),
        (((0.1, 0.7), (-2.0, 2.0), (1.0, 3.0)), 13, [GRID_CHUNK] * 4 + [13**3 - 4 * GRID_CHUNK]),
    ]
    for box, resolution, sizes in cases:
        chart = Chart(tuple("abc"[: len(box)]), box)
        chunks = [points for points, _ in grid_scan(chart, resolution, lambda points: points)]
        assert [chunk.shape for chunk in chunks] == [(size, chart.dim) for size in sizes]
        # same floats, same order, compared bit for bit
        points = [tuple(map(float.hex, row)) for chunk in chunks for row in chunk.tolist()]
        assert points == [tuple(map(float.hex, point)) for point in chart.grid(resolution)]


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
    geometry = m.geometry(stack)
    g, gamma = geometry.g, geometry.gamma
    for k, point in enumerate(map(tuple, stack.tolist())):
        for query in (m.metric_at, m.inverse_at, m.christoffel, m.riemann):
            assert np.array_equal(query(stack)[k], query(point))
        assert np.array_equal(g[k], m.metric_at(point))
        assert np.array_equal(gamma[k], m.christoffel(point))
        for column, plane in enumerate(planes):
            assert curvatures[k, column] == m.sectional_curvature(point, plane)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).reshape(-1).view(np.int64).tolist()


def _reference_sectional(g, riemann, plane) -> float:
    """One value the way the per-value loop made it: one ``np.dot`` and
    numpy-scalar arithmetic on one point's g and R."""
    i, j = plane
    numerator = float(np.dot(g[:, i], riemann[:, j, i, j]))
    denominator = g[i, i] * g[j, j] - g[i, j] ** 2
    assert abs(denominator) >= 1e-14 * max(1.0, abs(g[i, i] * g[j, j]))
    return numerator / denominator


def _nearly_rank_one_metric() -> ChartMetric:
    """g = 0.01 I + p p^T: g_ii g_jj - g_ij^2 is small against g_ij^2, so
    the last bit of g_ij^2 shows in the denominator."""
    names = ("x", "y", "z")
    entries = [
        [f"{0.01 * (i == j)} + {names[min(i, j)]} * {names[max(i, j)]}" for j in range(3)]
        for i in range(3)
    ]
    return ChartMetric(Chart(names, ((-2.0, 2.0),) * 3), entries)


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda name=name: preset_metric(name), id=name) for name in PRESET_NAMES]
    + [pytest.param(lambda seed=seed: random_metric(3, seed), id=f"random{seed}") for seed in (0, 1, 2, 3)]
    + [pytest.param(_nearly_rank_one_metric, id="nearly_rank_one")],
)
def test_sectional_curvatures_match_the_per_value_formula_bitwise(make):
    m = make()  # a fresh metric: its arrays are compiled anew
    assert m.dim in (2, 3)
    planes = [(i, j) for i in range(m.dim) for j in range(i + 1, m.dim)]
    rng = np.random.default_rng(11)
    # small stacks run point by point, larger ones as columns, alternately
    # through the same arrays
    sizes = (5, STACK_MIN_POINTS + 8, STACK_MIN_POINTS + 8, STACK_MIN_POINTS + 8, 5)
    stacks = [np.array(m.chart.random_points(rng, size)) for size in sizes]
    results = [m.sectional_curvatures(stack, planes) for stack in stacks]
    for stack, curvatures in zip(stacks, results):
        assert curvatures.shape == (len(stack), len(planes))
        expected = [
            _reference_sectional(m.metric_at(point), m.riemann(point), plane)
            for point in map(tuple, stack.tolist())
            for plane in planes
        ]
        assert _bits(curvatures) == _bits(expected)  # signed zeros included


def test_denominators_square_g_ij_as_a_numpy_scalar_does():
    # libm's pow, which a numpy scalar's ``** 2`` calls, and the product
    # x * x that an array's ``** 2`` makes round apart in a few values in
    # ten thousand; take the points of a large draw where they do
    m = _nearly_rank_one_metric()
    draw = np.random.default_rng(5).uniform(-1.9, 1.9, (20000, 3))
    xy = (draw[:, 0] * draw[:, 1]).tolist()
    stack = draw[[np.float64(v) ** 2 != v * v for v in xy]]
    assert len(stack) > 3
    g = m.metric_at(stack)
    scalar = [gk[0, 0] * gk[1, 1] - gk[0, 1] ** 2 for gk in g]
    assert (g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] ** 2 != scalar).any()  # an array's ** 2 shows
    expected = [
        _reference_sectional(m.metric_at(point), m.riemann(point), (0, 1))
        for point in map(tuple, stack.tolist())
    ]
    assert _bits(m.sectional_curvatures(stack, [(0, 1)])) == _bits(expected)


def test_row_times_column_matmul_is_the_np_dot_kernel_bitwise():
    # sectional_curvatures and quadric_residual_of rely on numpy sending a
    # (1, n) @ (n, 1) matmul row to the dot kernel np.dot runs on 1-d
    # vectors at the same strides; a numpy or BLAS that routes them
    # otherwise would change reported values, so fail here first
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 5):
        g = rng.standard_normal((300, n, n)) * rng.uniform(0.01, 100.0, (300, 1, 1))
        riemann = rng.standard_normal((300, n, n, n, n))
        for i in range(n):
            for j in range(n):
                stacked = np.matmul(g[:, None, :, i], riemann[:, :, j, i, j, None])
                assert stacked.shape == (300, 1, 1)
                per_row = [np.dot(g[k][:, i], riemann[k][:, j, i, j]) for k in range(300)]
                assert _bits(stacked) == _bits(per_row)
        rows = g[:, 0, :]  # contiguous rows, as developed points are
        stacked = np.matmul(rows[:, None, :-1], rows[:, :-1, None])
        assert _bits(stacked) == _bits([row[:-1] @ row[:-1] for row in rows])
    # and a square as a numpy scalar's ``** 2`` makes it (libm's pow)
    values = rng.standard_normal(20000) * rng.uniform(0.01, 100.0, 20000)
    assert _bits(np.float_power(values, 2.0)) == _bits([v**2 for v in map(np.float64, values)])


@pytest.mark.parametrize("size", [3, STACK_MIN_POINTS + 8])
def test_a_degenerate_plane_raises_at_the_first_point_and_plane_in_turn(size):
    # g_ii g_jj - g_ij^2 = 1e-14 x_i x_j, degenerate where x_i x_j < 1
    chart = Chart(("x", "y", "z"), ((0.5, 2.0),) * 3)
    m = ChartMetric(chart, (("1e-7 * x", "0", "0"), ("0", "1e-7 * y", "0"), ("0", "0", "1e-7 * z")))
    planes = [(0, 1), (0, 2), (1, 2)]
    # the second point is degenerate in the last plane only, the third in the first
    stack = np.array([(1.5, 1.5, 1.5)] * (size - 2) + [(1.5, 0.8, 0.9), (0.6, 0.9, 1.8)])
    with pytest.raises(SingularMetricError) as stacked:
        m.sectional_curvatures(stack, planes)
    failures = []
    for point in map(tuple, stack.tolist()):
        for plane in planes:
            try:
                m.sectional_curvature(point, plane)
            except SingularMetricError as exc:
                failures.append((point, plane, str(exc)))
    assert [f[:2] for f in failures] == [((1.5, 0.8, 0.9), (1, 2)), ((0.6, 0.9, 1.8), (0, 1))]
    assert str(stacked.value) == failures[0][2]
    assert str(stacked.value) == "degenerate coordinate plane at point (1.5, 0.8, 0.9)"
    assert stacked.value.point == (1.5, 0.8, 0.9)


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


def test_point_queries_refuse_an_indefinite_point():
    # g_yy = 1.2 - 2 at the bottom of the dip: nonsingular, not positive
    # definite; the build sample stays clear of the dip
    chart = Chart(tuple(_DIPPING_METRIC["names"]), _DIPPING_METRIC["box"])
    m = ChartMetric(chart, _DIPPING_METRIC["entries"])
    point = (0.6, 0.6)
    stack = np.array([(-0.5 + 0.02 * k, -0.5) for k in range(40)] + [point])
    message = "metric is not positive definite (min eigenvalue -8.000e-01) at point (0.6, 0.6)"
    for query in (m.definite_metric_at, m.christoffel, m.riemann, m.inverse_at, m.sectional_curvature):
        with pytest.raises(SingularMetricError) as alone:
            query(point)
        assert str(alone.value) == message
    curvatures = functools.partial(m.sectional_curvatures, planes=[(0, 1)])
    for query in (m.definite_metric_at, m.christoffel, m.riemann, m.inverse_at, curvatures):
        with pytest.raises(SingularMetricError) as stacked:
            query(stack)
        assert str(stacked.value) == message
        assert stacked.value.point == point


def test_pairing_and_model_tensor_refuse_an_indefinite_point():
    chart = Chart(tuple(_DIPPING_METRIC["names"]), _DIPPING_METRIC["box"])
    m = ChartMetric(chart, _DIPPING_METRIC["entries"])
    point = (0.6, 0.6)
    message = "metric is not positive definite (min eigenvalue -8.000e-01) at point (0.6, 0.6)"
    e1, e2, e3 = np.eye(3)
    queries = (
        lambda: bundle_pairing("h", m, e2, e2, point),
        lambda: constant_curvature_tensor(m, 1.0, e1[:2], e2[:2], e2[:2], point),
    )
    for query in queries:
        with pytest.raises(SingularMetricError) as info:
            query()
        assert str(info.value) == message
        assert info.value.point == point


def test_sectional_curvature_refuses_a_stack():
    m = preset_metric("half_plane")
    with pytest.raises(DimensionError, match="use sectional_curvatures for a stack"):
        m.sectional_curvature(np.array([(0.0, 1.0), (0.0, 2.0)]))


def test_a_stacked_geometry_raises_what_christoffel_raises():
    # g is singular on x = 0, where Gamma also divides by det g = 0: the
    # singularity check on g comes first
    m = ChartMetric(Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0))), (("1", "0"), ("0", "x^2")))
    with pytest.raises(SingularMetricError) as alone:
        m.christoffel((0.0, 0.5))
    with pytest.raises(SingularMetricError) as stacked:
        m.geometry(np.array([(0.5, 0.5), (0.0, 0.5), (0.25, 0.0)])).gamma
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


def test_stacked_or_in_turn_tries_a_shortcut_then_the_stack_then_each_item():
    calls = []

    def evaluate(items):
        calls.append(len(items))
        if len(items) > 1 and 3 in items:
            raise ChartDomainError("a stack holding 3")
        return np.array(items, dtype=float) * 2.0

    def failing():
        calls.append("shortcut")
        raise ExpressionDomainError("no shortcut")

    assert stacked_or_in_turn(evaluate, [1, 2], lambda: np.array([7.0, 8.0])).tolist() == [7.0, 8.0]
    assert calls == []
    assert stacked_or_in_turn(evaluate, [1, 2], failing).tolist() == [2.0, 4.0]
    assert calls == ["shortcut", 2]
    calls.clear()
    assert stacked_or_in_turn(evaluate, [1, 3], failing).tolist() == [2.0, 6.0]
    assert calls == ["shortcut", 2, 1, 1]


def test_grid_scan_names_the_point_of_a_domain_error():
    chart = Chart(("x", "y"), ((0.0, 1.0), (0.0, 1.0)), margin=0.0)
    reciprocal = ExprArray(chart, (Var("x") - 0.5) ** -1.0)
    with pytest.raises(ExpressionDomainError) as caught:
        for _ in grid_scan(chart, 3, reciprocal.at):
            pass
    # the first grid point, in point order, where x = 0.5
    assert caught.value.point == (0.5, 0.0)
    assert str(caught.value).endswith(" at point (0.5, 0.0)")
    with pytest.raises(ExpressionDomainError) as alone:
        reciprocal.at((0.5, 0.0))
    assert alone.value.point is None and str(caught.value) == f"{alone.value} at point (0.5, 0.0)"


def _full_scans(patch):
    """Every array claims to read every axis, so each scan runs in full."""
    patch.setattr(ExprArray, "read_axes", property(lambda self: tuple(range(self.chart.dim))))


def _metric_scan_chunks(capsys, name: str, grid: int) -> tuple[list, str]:
    """Every chunk that the flatness scans of both variants and the
    curvature job yield on a preset, as bytes, and the curvature report."""
    chunks = []

    def recording(*args):
        for points, values in grid_scan(*args):
            chunks.append((points.tobytes(), values.shape, values.tobytes()))
            yield points, values

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sasaki, "grid_scan", recording)
        patch.setattr(cli, "grid_scan", recording)
        metric = preset_metric(name)
        for variant in "hs":
            flatness_scan(metric, variant, grid)
        capsys.readouterr()
        assert cli.main(["curvature", "--preset", name, "--grid", str(grid)]) == 0
    report = [line for line in capsys.readouterr().out.splitlines() if "wall_time_s" not in line]
    return chunks, "\n".join(report)


@pytest.mark.parametrize(
    "name, grid",
    # every preset, then grids that split into a full chunk and a part
    [(name, 5) for name in PRESET_NAMES] + [("sphere3", 9), ("half_plane", 23)],
)
def test_a_sub_grid_scan_yields_the_full_scans_chunks_bitwise(capsys, name, grid):
    reduced = _metric_scan_chunks(capsys, name, grid)
    with pytest.MonkeyPatch.context() as patch:
        _full_scans(patch)
        full = _metric_scan_chunks(capsys, name, grid)
    chunks = math.ceil(grid ** get_preset(name).chart.dim / GRID_CHUNK)
    assert len(reduced[0]) == len(full[0]) == 3 * chunks
    assert reduced == full


@pytest.mark.parametrize(
    "name, scanned",
    [
        ("euclidean2", (0,)),  # no axis is read: the first stands in
        ("euclidean3", (0,)),
        ("sphere2", (0,)),
        ("sphere3", (0, 1)),
        ("half_plane", (1,)),
        ("hyperbolic3", (2,)),
        ("constant_curvature", (1,)),  # a half-plane at c = -1
        ("poincare_disk", (0, 1)),
        ("conformal_bump", (0, 1)),
    ],
)
def test_every_tape_a_metric_scan_evaluates_reads_only_the_axes_it_scans(capsys, name, scanned):
    compile_expressions = metricspace.compile_expressions
    calls: list = []  # per stack a scan evaluates: its varying axes, then the tapes' loads
    active: list = []  # the loads of the stack being evaluated

    def compiling(expressions, variables):
        expressions = list(expressions)
        fn = compile_expressions(expressions, variables)
        # what the tape loads, from a walk of its own
        assert fn.reads == tuple(sorted(map(variables.index, variables_of(*expressions))))

        @functools.wraps(fn)  # as a tracing wrapper would, keeping ``reads``
        def recorded(points):
            if active:
                active[-1].add(fn.reads)
            return fn(points)

        return recorded

    def recording(chart, resolution, evaluate, arrays=None):
        def spied(points):
            varying = tuple(a for a in range(chart.dim) if len(set(points[:, a].tolist())) > 1)
            calls.append((varying, set()))
            active.append(calls[-1][1])
            try:
                return evaluate(points)
            finally:
                active.pop()

        return grid_scan(chart, resolution, spied, arrays)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metricspace, "compile_expressions", compiling)
        patch.setattr(sasaki, "grid_scan", recording)
        patch.setattr(cli, "grid_scan", recording)
        metric = preset_metric(name)
        for variant in "hs":
            flatness_scan(metric, variant, 6)
        assert cli.main(["curvature", "--preset", name, "--grid", "6"]) == 0
    capsys.readouterr()
    assert len(calls) == 3  # each scan evaluates its sub-grid in one stack
    for varying, reads in calls:
        assert varying == scanned
        assert reads and all(set(read) <= set(scanned) for read in reads)


def _reduced_and_full(capsys, argv: list[str]) -> list[tuple]:
    """(exit code, stdout, stderr) of a CLI run, then of the same run with
    every scan in full."""
    outcomes = []
    for full in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            if full:
                _full_scans(patch)
            code = cli.main(argv)
        outcomes.append((code, *capsys.readouterr()))
    return outcomes


def test_a_sub_grid_scan_refuses_an_indefinite_point_as_the_full_scan_does(capsys, tmp_path):
    # g_33 dips below zero for x1 near 0.6, which the construction check's
    # 4 points per axis miss; g reads x1 alone
    entries = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1.2 - 2*exp(-100*(x1-0.6)^2)"]]
    metric = {"names": ["x1", "x2", "x3"], "box": [[-1, 1], [-1, 1], [-1, 1]], "entries": entries}
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"metric": metric, "grid": 21}))
    axis = [-0.9 + 1.8 * k / 20 for k in range(21)]
    first = next(x for x in axis if 1.2 - 2 * math.exp(-100 * (x - 0.6) ** 2) <= 1e-10)
    for argv in (["curvature"], ["flatness", "--variant", "h"], ["flatness", "--variant", "s"]):
        reduced, full = _reduced_and_full(capsys, [*argv, "--config", str(config)])
        assert reduced == full
        code, out, err = reduced
        assert code == 2 and out == "" and err.startswith("error: metric is not positive definite")
        found = tuple(float(v) for v in err.split("at point (")[1].split(")")[0].split(", "))
        assert found == pytest.approx((first, -0.9, -0.9), abs=1e-12)


def test_a_sub_grid_scan_keeps_a_consumers_refusal_ahead_of_a_later_error(capsys, tmp_path):
    # curvatures near 1e296 from g_33's steep term make every residual
    # against -1.8e308 overflow in the first chunk; g_22 turns indefinite
    # near x1 = 0.6, in a later chunk; g reads x1 alone
    entries = [
        ["1", "0", "0"],
        ["0", "1.2 - 2*exp(-100*(x1-0.6)^2)", "0"],
        ["0", "0", "1 + 1e-3*sin(1e150*x1)"],
    ]
    metric = {"names": ["x1", "x2", "x3"], "box": [[-1, 1], [-1, 1], [-1, 1]], "entries": entries}
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"metric": metric, "grid": 21, "expected": -1.7976931348623157e308}))
    reduced, full = _reduced_and_full(capsys, ["curvature", "--config", str(config)])
    assert reduced == full
    code, _, err = reduced
    assert code == 2 and err.startswith("error: curvature residual is not finite at point (-0.9, ")


def test_worst_point_keeps_the_first_of_equal_values_across_chunks():
    first = (np.array([[0.0], [1.0], [2.0]]), np.array([0.5, 3.0, 3.0]))
    tie = (np.array([[3.0], [4.0]]), np.array([3.0, float("nan")]))
    assert worst_point([first, tie]) == (3.0, (1.0,), 5)
    larger = (np.array([[5.0]]), np.array([3.5]))
    assert worst_point([first, tie, larger]) == (3.5, (5.0,), 6)
    below_floor = (np.array([[6.0, 7.0]]), np.array([-2.0]))
    assert worst_point([below_floor]) == (-1.0, None, 1)
    at_floor = (np.array([[8.0], [9.0]]), np.array([-1.0, -1.5]))
    assert worst_point([at_floor]) == (-1.0, None, 2)
    nothing = (np.empty((0, 1)), np.empty(0))
    all_nan = (np.array([[10.0], [11.0]]), np.array([math.nan, math.nan]))
    assert worst_point([nothing, all_nan]) == (-1.0, None, 2)
    assert worst_point([first, nothing, all_nan, tie]) == (3.0, (1.0,), 7)
    # -0.0 before 0.0: as max() keeps -0.0, the first, with its point
    signed = (np.array([[12.0], [13.0]]), np.array([-0.0, 0.0]))
    zero = (np.array([[14.0]]), np.array([0.0]))
    for chunks in ([signed], [signed, zero], [all_nan, signed, nothing, zero]):
        worst, point, _ = worst_point(chunks)
        assert (math.copysign(1.0, worst), point) == (-1.0, (12.0,))
    nan_first = (np.array([[15.0], [16.0], [17.0]]), np.array([math.nan, -0.5, -0.5]))
    assert worst_point([nan_first]) == (-0.5, (16.0,), 3)


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


def _entry_pair(root: float, depth: int, step) -> list:
    """Two entries built by ``step`` from x + root and x + (-root)."""
    entries = []
    for value in (root, -root):
        entry = Binary("+", Var("x"), Const(value))
        for _ in range(depth):
            entry = step(entry)
        entries.append(entry)
    return entries


def test_symmetry_check_walks_deep_and_shared_entries():
    chart = Chart(("x", "y"), ((-0.5, 0.5), (-0.5, 0.5)))
    cases = [
        (3000, lambda e: mul(Const(0.5), call("sin", e))),  # deeper than the recursion limit
        (40, lambda e: mul(e, e)),  # 2^40 paths through 40 shared levels, each pair met once
    ]
    for depth, step in cases:
        a, b = _entry_pair(0.0, depth, step)
        assert a is not b
        ChartMetric(chart, [[2.0, a], [b, 2.0]])
        a, b = _entry_pair(0.25, depth, step)
        with pytest.raises(ValueError, match=r"entries \(0,1\) and \(1,0\) differ"):
            ChartMetric(chart, [[2.0, a], [b, 2.0]])


def test_a_sectional_curvature_that_is_not_finite_names_its_point():
    # g and R pass every guard, but the products g_ki R^k_jij overflow
    chart = Chart(("x", "y"), ((0.5, 1.0), (0.5, 1.0)))
    metric = ChartMetric(chart, [["1000", "300"], ["300", "100*(0.9 + 1e-3*(2 + sin(1e154*x)))"]])
    points = np.array(list(chart.grid(6)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExpressionDomainError, match="sectional curvature is not finite") as err:
            metric.sectional_curvatures(points, [(0, 1)])
        assert err.value.point == (0.525, 0.525)
        with pytest.raises(ExpressionDomainError) as err:
            metric.sectional_curvature((0.525, 0.525))
        assert err.value.point == (0.525, 0.525)


def test_a_preset_refuses_parameters_it_does_not_take():
    assert get_preset("conformal_bump", a=0.5).params == {"a": 0.5}
    with pytest.raises(ValueError, match=r"preset 'sphere2' does not take parameters \['a'\]"):
        get_preset("sphere2", a=0.5)
