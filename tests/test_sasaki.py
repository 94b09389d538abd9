"""Lie bases, matrix-valued forms, the two bundle connections, and flatness."""

import re
from pathlib import Path

import numpy as np
import pytest

from cartanflat.cartan import gauss_curvature, orthonormal_frame, wedge
from cartanflat.errors import DimensionError
from cartanflat.exprlang import Const, add, differentiate, mul, neg, sub
from cartanflat import exprlang, metricspace
from cartanflat.presets import PRESET_NAMES, preset_metric, random_metric
from cartanflat.sasaki import (
    MatrixOneForm,
    basis_coefficients,
    commutator,
    connection_matrix,
    curvature_form,
    flatness_scan,
    lie_basis,
    sasaki_form,
    sl2_basis,
    so3_basis,
    so21_basis,
    variant_sign,
)
from cartanflat.sasaki import _curvature_of, _on_frame_pair

ETA = np.diag([1.0, 1.0, -1.0])


# ---------------------------------------------------------------------------
# bases and brackets
# ---------------------------------------------------------------------------


def test_sl2_bracket_table_exact():
    m1, m2, m3 = sl2_basis().matrices
    assert np.array_equal(commutator(m1, m2), m3)
    assert np.array_equal(commutator(m2, m3), -m1)
    assert np.array_equal(commutator(m3, m1), -m2)


def test_so21_bracket_table_exact():
    m1, m2, m3 = so21_basis().matrices
    assert np.array_equal(commutator(m1, m2), m3)
    assert np.array_equal(commutator(m2, m3), -m1)
    assert np.array_equal(commutator(m3, m1), -m2)


def test_so3_bracket_table_exact():
    m1, m2, m3 = so3_basis().matrices
    assert np.array_equal(commutator(m1, m2), -m3)
    assert np.array_equal(commutator(m2, m3), -m1)
    assert np.array_equal(commutator(m3, m1), -m2)


def test_sl2_and_so21_share_structure_constants():
    assert np.allclose(sl2_basis().structure_constants(), so21_basis().structure_constants(), atol=1e-14)


def test_so3_differs_only_in_first_bracket():
    a = so21_basis().structure_constants()
    b = so3_basis().structure_constants()
    assert np.allclose(a[0][1], -b[0][1], atol=1e-14)
    assert np.allclose(a[1][2], b[1][2], atol=1e-14)
    assert np.allclose(a[2][0], b[2][0], atol=1e-14)


def test_basis_matrices_satisfy_their_algebra_constraints():
    for m in so21_basis().matrices:
        assert np.array_equal(m.T @ ETA + ETA @ m, np.zeros((3, 3)))
    for m in so3_basis().matrices:
        assert np.array_equal(m.T + m, np.zeros((3, 3)))
    for m in sl2_basis().matrices:
        assert np.trace(m) == 0.0


def test_lie_basis_dispatch_and_unknown_name():
    assert lie_basis("sl2").size == 2
    assert lie_basis("so21").size == 3
    assert lie_basis("so3").size == 3
    with pytest.raises(ValueError, match="unknown basis"):
        lie_basis("su2")


def test_basis_coefficients_roundtrip():
    rng = np.random.default_rng(7)
    for basis in (sl2_basis(), so21_basis(), so3_basis()):
        for _ in range(20):
            coeffs = rng.normal(size=3)
            value = sum(c * m for c, m in zip(coeffs, basis.matrices))
            recovered, residual = basis_coefficients(value, basis)
            assert np.allclose(recovered, coeffs, atol=1e-12)
            assert residual <= 1e-12


def test_basis_coefficients_flags_matrix_outside_span():
    for basis in (sl2_basis(), so21_basis(), so3_basis()):
        _, residual = basis_coefficients(np.eye(basis.size), basis)
        assert residual >= 0.4


# ---------------------------------------------------------------------------
# connection matrices: layout and algebra-valuedness
# ---------------------------------------------------------------------------


def test_half_plane_connection_matrix_layout():
    a_h = connection_matrix(orthonormal_frame(preset_metric("half_plane")), "h")
    on_dx = a_h.value((0.0, 1.0), (1.0, 0.0))
    assert np.allclose(on_dx, [[0.0, -1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], atol=1e-12)
    on_dy = a_h.value((0.0, 1.0), (0.0, 1.0))
    assert np.allclose(on_dy, [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], atol=1e-12)


def test_half_plane_s_variant_flips_last_row():
    a_s = connection_matrix(orthonormal_frame(preset_metric("half_plane")), "s")
    on_dx = a_s.value((0.0, 1.0), (1.0, 0.0))
    assert np.allclose(on_dx, [[0.0, -1.0, 1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], atol=1e-12)


def test_half_plane_sl2_form_closed_value():
    a = sasaki_form(orthonormal_frame(preset_metric("half_plane")), sl2_basis())
    assert np.allclose(a.value((0.0, 1.0), (1.0, 0.0)), [[0.0, -1.0], [0.0, 0.0]], atol=1e-12)


def test_sasaki_form_so21_matches_connection_matrix():
    frame = orthonormal_frame(preset_metric("half_plane"))
    a_basis = sasaki_form(frame, so21_basis())
    a_matrix = connection_matrix(frame, "h")
    rng = np.random.default_rng(3)
    for point in frame.chart.random_points(rng, 8):
        v = rng.normal(size=2)
        assert np.allclose(a_basis.value(point, v), a_matrix.value(point, v), atol=1e-10)


def test_sasaki_form_so3_matches_s_connection_matrix():
    frame = orthonormal_frame(preset_metric("sphere2"))
    a_basis = sasaki_form(frame, so3_basis())
    a_matrix = connection_matrix(frame, "s")
    rng = np.random.default_rng(4)
    for point in frame.chart.random_points(rng, 8):
        v = rng.normal(size=2)
        assert np.allclose(a_basis.value(point, v), a_matrix.value(point, v), atol=1e-10)


@pytest.mark.parametrize("name", ["half_plane", "sphere2", "conformal_bump"])
def test_connection_values_lie_in_the_right_algebra_2d(name):
    frame = orthonormal_frame(preset_metric(name))
    a_h = connection_matrix(frame, "h")
    a_s = connection_matrix(frame, "s")
    rng = np.random.default_rng(11)
    for point in frame.chart.random_points(rng, 10):
        v = rng.normal(size=2)
        m_h = a_h.value(point, v)
        m_s = a_s.value(point, v)
        assert np.max(np.abs(m_h.T @ ETA + ETA @ m_h)) <= 1e-10
        assert np.max(np.abs(m_s.T + m_s)) <= 1e-10
        _, span_residual = basis_coefficients(m_h, so21_basis())
        assert span_residual <= 1e-10


@pytest.mark.parametrize("name", ["hyperbolic3", "sphere3"])
def test_connection_values_lie_in_the_right_algebra_3d(name):
    frame = orthonormal_frame(preset_metric(name))
    a_h = connection_matrix(frame, "h")
    a_s = connection_matrix(frame, "s")
    eta4 = np.diag([1.0, 1.0, 1.0, -1.0])
    rng = np.random.default_rng(12)
    for point in frame.chart.random_points(rng, 5):
        v = rng.normal(size=3)
        m_h = a_h.value(point, v)
        m_s = a_s.value(point, v)
        assert np.max(np.abs(m_h.T @ eta4 + eta4 @ m_h)) <= 1e-10
        assert np.max(np.abs(m_s.T + m_s)) <= 1e-10


def test_entry_form_reproduces_coframe_column():
    frame = orthonormal_frame(preset_metric("half_plane"))
    a_h = connection_matrix(frame, "h")
    point = (0.4, 2.5)
    assert np.allclose(a_h.entry_form(0, 2).at(point), frame.coframe_form(0).at(point), atol=1e-14)


def test_matrix_form_shape_validation():
    frame = orthonormal_frame(preset_metric("half_plane"))
    a_h = connection_matrix(frame, "h")
    with pytest.raises(DimensionError):
        a_h.value((0.0, 1.0), (1.0, 0.0, 0.0))
    with pytest.raises(DimensionError):
        MatrixOneForm(frame.chart, a_h.comps[:1])
    with pytest.raises(DimensionError):
        sasaki_form(orthonormal_frame(preset_metric("sphere3")), so21_basis())


def test_variant_sign_values_and_error():
    assert variant_sign("h") == 1.0
    assert variant_sign("s") == -1.0
    with pytest.raises(ValueError, match="expected 'h' or 's'"):
        variant_sign("flat")


# ---------------------------------------------------------------------------
# curvature: decomposition, coefficient equivalence
# ---------------------------------------------------------------------------


def test_curvature_decomposition_against_gauss_route():
    # Omega = m3 * (K + 1) * vol for the "h" connection written in so21:
    # the m1 and m2 coefficients are the structure-equation residuals.
    frame = orthonormal_frame(preset_metric("conformal_bump"))
    omega = curvature_form(sasaki_form(frame, so21_basis()))
    volume = wedge(frame.coframe_form(0), frame.coframe_form(1))
    rng = np.random.default_rng(21)
    for point in frame.chart.random_points(rng, 6):
        u = rng.normal(size=2)
        v = rng.normal(size=2)
        coeffs, span_residual = basis_coefficients(omega.value(point, u, v), so21_basis())
        assert span_residual <= 1e-10
        assert abs(coeffs[0]) <= 1e-9
        assert abs(coeffs[1]) <= 1e-9
        expected = (gauss_curvature(frame, point) + 1.0) * float(u @ volume.at(point) @ v)
        assert abs(coeffs[2] - expected) <= 1e-8


def test_sl2_and_so21_curvature_coefficients_agree():
    frame = orthonormal_frame(preset_metric("conformal_bump"))
    omega2 = curvature_form(sasaki_form(frame, sl2_basis()))
    omega3 = curvature_form(sasaki_form(frame, so21_basis()))
    rng = np.random.default_rng(22)
    for point in frame.chart.random_points(rng, 6):
        u = rng.normal(size=2)
        v = rng.normal(size=2)
        c2, r2 = basis_coefficients(omega2.value(point, u, v), sl2_basis())
        c3, r3 = basis_coefficients(omega3.value(point, u, v), so21_basis())
        assert r2 <= 1e-10 and r3 <= 1e-10
        assert np.allclose(c2, c3, atol=1e-9)


def test_curvature_e_row_and_column_vanish():
    # dA + A^A kills the last row and column: those entries are the
    # torsion-type residuals d omega^i - sum_j omega^j ^ omega_j^i.
    for name in ("half_plane", "conformal_bump"):
        frame = orthonormal_frame(preset_metric(name))
        for variant in ("h", "s"):
            omega = curvature_form(connection_matrix(frame, variant))
            for point in frame.chart.grid(4):
                values = omega.at(point)
                assert np.max(np.abs(values[:, :, 2, :])) <= 1e-10
                assert np.max(np.abs(values[:, :, :, 2])) <= 1e-10


def _textbook_curvature(a_form):
    """Omega[i][j][a][b] of dA + A ^ A, written out entry by entry: each sum
    seeded with 0.0, each lower entry the negation of its upper one."""
    names, comps = a_form.chart.names, a_form.comps
    n, size = a_form.chart.dim, len(comps[0])

    def product(x, y, a, b):
        total = Const(0.0)
        for c in range(size):
            total = add(total, mul(x[a][c], y[c][b]))
        return total

    def upper(i, j, a, b):
        d = sub(differentiate(comps[j][a][b], names[i]), differentiate(comps[i][a][b], names[j]))
        return add(d, sub(product(comps[i], comps[j], a, b), product(comps[j], comps[i], a, b)))

    return [
        [
            [
                [
                    upper(i, j, a, b) if i < j else neg(upper(j, i, a, b)) if i > j else Const(0.0)
                    for b in range(size)
                ]
                for a in range(size)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]


def _is_textbook_curvature(a_form) -> bool:
    # interning makes `is` a check of the structure, so of every compiled value
    built = curvature_form(a_form).comps
    expected = _textbook_curvature(a_form)
    n, size = a_form.chart.dim, len(a_form.comps[0])
    return all(
        built[i][j][a][b] is expected[i][j][a][b]
        for i in range(n)
        for j in range(n)
        for a in range(size)
        for b in range(size)
    )


@pytest.mark.parametrize("variant", ["h", "s"])
@pytest.mark.parametrize("name", ["half_plane", "sphere3", "random3_1"])
def test_curvature_form_is_the_textbook_node_for_node(name, variant):
    metric = random_metric(3, 1) if name == "random3_1" else preset_metric(name)
    assert _is_textbook_curvature(connection_matrix(orthonormal_frame(metric), variant))


@pytest.mark.parametrize("basis", ["sl2", "so21", "so3"])
def test_curvature_of_sasaki_form_is_the_textbook_node_for_node(basis):
    frame = orthonormal_frame(preset_metric("conformal_bump"))
    assert _is_textbook_curvature(sasaki_form(frame, lie_basis(basis)))


# ---------------------------------------------------------------------------
# flatness scans
# ---------------------------------------------------------------------------


def test_half_plane_h_flat_s_residual_two():
    m = preset_metric("half_plane")
    report_h = flatness_scan(m, "h", 12)
    report_s = flatness_scan(m, "s", 12)
    assert report_h.max_residual <= 1e-9
    assert abs(report_s.max_residual - 2.0) <= 1e-9
    assert report_h.points == 144


def test_sphere_s_flat_h_residual_two():
    m = preset_metric("sphere2")
    report_s = flatness_scan(m, "s", 12)
    report_h = flatness_scan(m, "h", 12)
    assert report_s.max_residual <= 1e-9
    assert abs(report_h.max_residual - 2.0) <= 1e-9


def test_poincare_disk_h_flat():
    report = flatness_scan(preset_metric("poincare_disk"), "h", 8)
    assert report.max_residual <= 1e-8


def test_pseudospherical_h_flat():
    report = flatness_scan(preset_metric("pseudospherical"), "h", 6)
    assert report.max_residual <= 1e-8


def test_euclidean_residual_is_one_for_both_variants():
    m = preset_metric("euclidean2")
    report_h = flatness_scan(m, "h", 5)
    report_s = flatness_scan(m, "s", 5)
    assert abs(report_h.max_residual - 1.0) <= 1e-14
    assert abs(report_s.max_residual - 1.0) <= 1e-14
    # constant residual: the first grid point in row-major order wins
    assert np.allclose(report_h.argmax_point, (-0.9, -0.9), atol=1e-12)


def test_constant_curvature_family_residuals():
    for c in (-1.0, -0.5, 0.0, 0.5, 1.0):
        m = preset_metric("constant_curvature", c=c)
        report_h = flatness_scan(m, "h", 6)
        report_s = flatness_scan(m, "s", 6)
        assert abs(report_h.max_residual - abs(c + 1.0)) <= 1e-7
        assert abs(report_s.max_residual - abs(c - 1.0)) <= 1e-7


def test_three_dimensional_space_forms():
    hyper = preset_metric("hyperbolic3")
    assert flatness_scan(hyper, "h", 4).max_residual <= 1e-8
    report_s = flatness_scan(hyper, "s", 4)
    assert 1.9 <= report_s.max_residual <= 2.1

    sphere = preset_metric("sphere3")
    assert flatness_scan(sphere, "s", 4).max_residual <= 1e-8
    report_h = flatness_scan(sphere, "h", 4)
    assert 1.9 <= report_h.max_residual <= 2.1


def test_flatness_scan_is_deterministic():
    m = preset_metric("conformal_bump")
    first = flatness_scan(m, "h", 7)
    second = flatness_scan(m, "h", 7)
    assert first == second


def _flatness_point_by_point(metric, variant, resolution):
    """The scan one grid point at a time: the reference for the chunked scan."""
    frame = orthonormal_frame(metric)
    omega = curvature_form(connection_matrix(frame, variant))
    best, best_point = -1.0, ()
    for point in metric.chart.grid(resolution):
        e = frame.frame_at(point)
        on_frame = np.einsum("klij,ka,lb->abij", omega.at(point), e, e)
        residual = 0.0
        for a in range(metric.dim):
            for b in range(a + 1, metric.dim):
                residual = max(residual, float(np.max(np.abs(on_frame[a, b]))))
        if residual > best:
            best, best_point = residual, point
    return best, best_point


@pytest.mark.parametrize(
    "name, variant, resolution",
    [("sphere3", "h", 9), ("hyperbolic3", "s", 9), ("conformal_bump", "h", 30)],
)
def test_chunked_flatness_scan_matches_point_by_point(name, variant, resolution):
    # 729 and 900 points: two chunks, each past the point-by-point cutoff
    m = preset_metric(name)
    report = flatness_scan(m, variant, resolution)
    best, best_point = _flatness_point_by_point(m, variant, resolution)
    assert report.max_residual == best  # bit-identical
    assert report.argmax_point == best_point


def _metrics_for_pair_contraction():
    for name in PRESET_NAMES:
        yield name, preset_metric(name)
    for seed in (0, 1, 2, 3):
        yield f"random_metric(3, {seed})", random_metric(3, seed)


@pytest.mark.parametrize("variant", ["h", "s"])
def test_per_pair_contraction_equals_the_full_einsum_bitwise(variant):
    for label, m in _metrics_for_pair_contraction():
        points = np.array(list(m.chart.grid(4)))
        frame_matrix = orthonormal_frame(m).frame_at(points)
        coefficient = _curvature_of(m, variant).at(points)
        full = np.einsum("mklij,mka,mlb->mabij", coefficient, frame_matrix, frame_matrix)
        for a in range(m.dim):
            for b in range(a + 1, m.dim):
                pair = _on_frame_pair(coefficient, frame_matrix, a, b)
                assert np.array_equal(pair, full[:, a, b]), (label, a, b)
                assert np.array_equal(np.signbit(pair), np.signbit(full[:, a, b])), (label, a, b)


def test_a_second_scan_of_a_metric_compiles_nothing(monkeypatch):
    compiled = []
    original = metricspace.compile_expressions

    def counting(expressions, variables):
        compiled.append(len(expressions))
        return original(expressions, variables)

    monkeypatch.setattr(metricspace, "compile_expressions", counting)
    m = preset_metric("half_plane")
    first = flatness_scan(m, "h", resolution=3)
    assert compiled
    compiled.clear()
    assert flatness_scan(m, "h", resolution=3) == first
    assert compiled == []
    flatness_scan(m, "s", resolution=3)
    assert len(compiled) == 1  # the "s" curvature; the frame is the metric's


def test_flatness_scan_random_metric_h_vs_s_spread():
    # a generic small perturbation of the flat metric stays near K = 0,
    # so both variants sit near residual 1 and far from 0
    m = random_metric(2, seed=5)
    report_h = flatness_scan(m, "h", 6)
    report_s = flatness_scan(m, "s", 6)
    assert 0.5 <= report_h.max_residual <= 1.5
    assert 0.5 <= report_s.max_residual <= 1.5


def test_readme_omega_node_counts_match_the_build():
    # the README's cost paragraph quotes the distinct nodes (leaves included)
    # of the "h" curvature form of random_metric(n, 0) for n = 2 to 6; the
    # first three are cheap enough to rebuild here
    text = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    quoted = re.search(r"`random_metric\(n, 0\)` has ([\d, and]+) distinct nodes for n = 2 to 6", text)
    assert quoted, "the README's Omega node counts are missing"
    counts = [int(c.replace(",", "")) for c in re.findall(r"\d[\d,]*\d|\d", quoted.group(1))]
    assert len(counts) == 5, counts
    for n, count in zip((2, 3, 4), counts):
        roots = list(metricspace._leaves(_curvature_of(random_metric(n, 0), "h").comps))
        assert len(exprlang._post_order(roots)) == count, n
