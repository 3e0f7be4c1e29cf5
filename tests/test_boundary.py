import math

import numpy as np
import pytest

from centroaffine import (
    DegenerateFrameError,
    HomogeneousPolynomial,
    SymmetricForm,
    boundary_scan,
    gen_perturb,
    lorentz_extension_check,
    make_chart,
    regular_boundary_check,
    regularity_report,
)
from centroaffine.boundary import _boundary_rows, _boundary_tangent_bases, _cholesky_rows, _gradient_scale
from centroaffine.chart import tangent_bases
from conftest import FIXTURES, linear_copies, random_hyperbolic_cubics, scaled

CURVE = HomogeneousPolynomial.parse("x^3 - x*y^2")
MONOMIAL = HomogeneousPolynomial.parse("x^2*y")


def test_scan_regular_curve():
    frame = make_chart(CURVE, [1, 0])
    pts = boundary_scan(frame, directions=[[1.0]])
    assert np.allclose(pts[0].point, np.array([1.0, 1.0]) / math.sqrt(2), atol=1e-10)
    assert abs(pts[0].hval) <= 1e-10


def test_scan_monomial_faces():
    frame = make_chart(MONOMIAL, [1, 1])
    pts = boundary_scan(frame, directions=[[1.0], [-1.0]])
    found = {tuple(np.round(p.point, 8)) for p in pts}
    assert (1.0, -0.0) in found or (1.0, 0.0) in found
    assert (0.0, 1.0) in found or (-0.0, 1.0) in found


def test_scan_rejects_zero_direction():
    frame = make_chart(CURVE, [1, 0])
    with pytest.raises(ValueError):
        boundary_scan(frame, directions=[[0.0]])


def test_scan_points_arise_from_interior_rays():
    frame = make_chart(MONOMIAL, [2, 2])
    for bp in boundary_scan(frame, count=12):
        assert abs(bp.hval) <= 1e-10
        inside = frame.point((1.0 - 1e-6) * bp.ray_distance * bp.direction)
        assert frame.func(inside) > 0.0


def test_regular_check_curve_faces():
    frame = make_chart(CURVE, [1, 0])
    for bp in boundary_scan(frame, directions=[[1.0], [-1.0]]):
        entry = regular_boundary_check(frame, bp)
        assert entry.condition_i and entry.condition_ii and entry.regular
        assert entry.boundary_tangent_dim == 0  # vacuous in the planar case


def test_regular_check_monomial_faces():
    frame = make_chart(MONOMIAL, [1, 1])
    by_face = {}
    for bp in boundary_scan(frame, directions=[[1.0], [-1.0]]):
        key = "x_axis" if abs(bp.point[1]) < 1e-8 else "y_axis"
        by_face[key] = regular_boundary_check(frame, bp)
    # gradient vanishes where the curve approaches the vertical axis
    assert not by_face["y_axis"].condition_i and not by_face["y_axis"].regular
    assert by_face["y_axis"].condition_ii is None
    assert by_face["x_axis"].condition_i and by_face["x_axis"].regular


def test_adapted_frame_identities():
    # contraction identities of minus the Hessian at a regular boundary point
    frame = make_chart(CURVE, [1, 0])
    bp = boundary_scan(frame, directions=[[1.0]])[0]
    beta = SymmetricForm(-CURVE.hessian(bp.point))
    x = bp.point
    k = CURVE.degree
    assert abs(beta.value(x, x)) <= 1e-12  # -k (k-1) h = 0 on the boundary
    grad = bp.gradient
    c = beta.value(x, grad)
    assert abs(c + (k - 1) * grad @ grad) <= 1e-10
    assert c < 0


def test_lorentz_extension_curve():
    frame = make_chart(CURVE, [1, 0])
    bp = boundary_scan(frame, directions=[[1.0]])[0]
    ext = lorentz_extension_check(frame, bp)
    assert ext.det_negative
    assert abs(ext.determinant + 16.0) < 1e-9  # -c^2 with c = -4
    assert ext.signature == (1, 1, 0)


def test_lorentz_extension_not_applicable_without_gradient():
    frame = make_chart(MONOMIAL, [1, 1])
    degenerate = [
        bp for bp in boundary_scan(frame, directions=[[-1.0]]) if np.linalg.norm(bp.gradient) < 1e-8
    ]
    assert degenerate
    with pytest.raises(DegenerateFrameError):
        lorentz_extension_check(frame, degenerate[0])


def test_lorentz_extension_quadric_cone():
    # constant-Hessian cone: the extension is Lorentzian along the whole boundary
    quadric = HomogeneousPolynomial.parse("x^2 - y^2 - z^2")
    frame = make_chart(quadric, [1.0, 0.2, 0.1])
    # adapted-basis determinant is -c^2 with c = -(k-1)|grad|^2 = -4 at |x| = 1
    for bp in boundary_scan(frame, count=8):
        ext = lorentz_extension_check(frame, bp)
        assert ext.det_negative
        assert abs(ext.determinant + 16.0) < 1e-6
        assert ext.signature == (2, 1, 0)


def test_boundary_contraction_identities_quadric_cone():
    # the ray direction is null for minus the Hessian and orthogonal to the
    # boundary tangents inside the slice
    from centroaffine.boundary import _boundary_tangent_bases

    quadric = HomogeneousPolynomial.parse("x^2 - y^2 - z^2")
    frame = make_chart(quadric, [1.0, 0.2, 0.1])
    for bp in boundary_scan(frame, count=6):
        beta = SymmetricForm(-quadric.hessian(bp.point))
        scale = max(1.0, beta.scale)
        assert abs(beta.value(bp.point, bp.point)) <= 1e-8 * scale
        _, (slice_vecs,) = _boundary_tangent_bases(frame, bp.gradient[None])
        assert len(slice_vecs) == 1
        for y in slice_vecs:
            assert abs(beta.value(bp.point, y)) <= 1e-8 * scale


def test_regularity_report_aggregates(catalog_frames):
    expected = {"curve-regular": True, "curve-nonregular": False, "triple-product": False}
    for ident, (poly, frame) in catalog_frames.items():
        report = regularity_report(frame, count=60)
        assert report.regular == expected[ident], ident
        payload = report.to_json()
        assert payload["n_points"] == len(report.entries)


def test_regularity_report_triple_product_fails_condition_ii():
    poly = HomogeneousPolynomial.parse("x*y*z")
    frame = make_chart(poly, [1, 1, 1])
    report = regularity_report(frame, count=40)
    face_entries = [e for e in report.entries if e.condition_i]
    assert face_entries
    assert all(not e.condition_ii for e in face_entries)
    # minus the Hessian vanishes on face tangent planes: kernel dimension 2
    assert {e.kernel_dim for e in face_entries} == {2}


def test_regularity_report_records_closedness_failure():
    piece = HomogeneousPolynomial.parse("x^3 + y^3")
    frame = make_chart(piece, [2 ** (1 / 3), -1.0])
    report = regularity_report(frame, count=10)
    assert report.closedness_failures and not report.regular


def test_regularity_report_counts_multiple_zero_rays():
    # x^2 y z meets its boundary face x = 0 in a double zero; the boundary
    # lines x = +-y of x^3 - x y^2 are simple zeros
    frame = make_chart(HomogeneousPolynomial.parse("x^2*y*z"), [1.0, 1.0, 1.0])
    report = regularity_report(frame, count=100)
    assert 0 < report.multiple_zero_rays < 100
    assert report.to_json()["multiple_zero_rays"] == report.multiple_zero_rays
    assert regularity_report(make_chart(CURVE, [1.0, 0.0])).multiple_zero_rays == 0


@pytest.mark.parametrize("expr, seed", [f[:2] for f in FIXTURES], ids=[f[0] for f in FIXTURES])
def test_regularity_report_is_invariant_under_scaling(expr, seed):
    # lambda * h has the level sets of h: no decision may depend on lambda
    def summary(poly):
        report = regularity_report(make_chart(poly, seed))
        block = report.to_json()
        kernels = [e.kernel_dim for e in report.entries]
        return report.regular, block["condition_i_failures"], block["condition_ii_failures"], kernels

    poly = HomogeneousPolynomial.parse(expr)
    expected = summary(poly)
    for lam in (1e-3, 0.02, 37.5, 1e3):
        assert summary(scaled(poly, lam)) == expected, lam


def test_regularity_rows_equal_one_row_checks(catalog_frames):
    # the stacked pass gives at every scanned point what the one-point
    # wrappers give there; the random cubics have regular boundaries
    frames = [frame for _, frame in catalog_frames.values()]
    frames += [frame for _, frame in random_hyperbolic_cubics(count=3, seed=1)]
    rng = np.random.default_rng(29)
    for expr, seed, *_ in FIXTURES:
        poly = HomogeneousPolynomial.parse(expr)
        frames += [make_chart(q, y0) for q, y0 in linear_copies(poly, seed, rng)]
    checked = 0
    for frame in frames:
        points = [bp for bp in boundary_scan(frame, unbounded_ok=True) if bp is not None]
        rows = np.array([bp.point for bp in points])
        grads = np.array([bp.gradient for bp in points])
        entries, grams, dets, signatures = _boundary_rows(frame, rows, grads, 1e-6 * _gradient_scale(frame))
        assert entries == [regular_boundary_check(frame, bp) for bp in points]
        assert entries == regularity_report(frame).entries
        for entry, bp, gram, det, signature in zip(entries, points, grams, dets, signatures):
            if not entry.condition_i:
                continue
            if np.isnan(det):
                with pytest.raises(DegenerateFrameError):
                    lorentz_extension_check(frame, bp)
                continue
            ext = lorentz_extension_check(frame, bp)
            assert abs(ext.determinant - det) <= 1e-12 * abs(det)
            assert ext.signature == tuple(signature)
            assert np.array_equal(ext.gram, gram)
            checked += 1
    assert checked > 1000  # Lorentz extensions compared


def test_cholesky_rows_mark_the_rows_without_a_factor():
    # numpy rejects a whole stack for one indefinite matrix; that row alone is nan
    stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]], [[4.0, 2.0], [2.0, 3.0]]])
    chol = _cholesky_rows(stack)
    assert np.isnan(chol[1]).all()
    for i in (0, 2):
        assert np.array_equal(chol[i], np.linalg.cholesky(stack[i]))


def test_boundary_scan_marks_unbounded_rays_when_asked():
    frame = make_chart(HomogeneousPolynomial.parse("x^3 + y^3"), [2 ** (1 / 3), -1.0])
    points = boundary_scan(frame, directions=[[1.0], [-1.0]], unbounded_ok=True)
    assert points[0].ray_distance < 10.0 and points[1] is None


# -- perturbation -----------------------------------------------------------------


def test_gen_perturb_regularizes_all_scanned_points():
    frame = make_chart(MONOMIAL, [1, 1])
    for eps in (0.1, 0.5, 0.9):
        perturbed, new_frame = gen_perturb(frame, eps)
        report = regularity_report(new_frame, count=60)
        assert report.regular, f"eps={eps}"
        assert all(d < 0 for d in report.lorentz_determinants)


def test_gen_perturb_small_eps_recovers_coefficients():
    frame = make_chart(MONOMIAL, [1, 1])
    eps = 1e-6
    perturbed, _ = gen_perturb(frame, eps)
    base = MONOMIAL.terms
    for exp, coeff in perturbed.terms.items():
        assert abs(coeff - base.get(exp, 0.0)) <= 2.0 * eps


def test_gen_perturb_rejects_bad_eps():
    frame = make_chart(MONOMIAL, [1, 1])
    with pytest.raises(ValueError):
        gen_perturb(frame, 1.0)
    with pytest.raises(ValueError):
        gen_perturb(frame, 0.0)


def test_gen_perturb_preserves_degree_and_hyperbolicity():
    from centroaffine import classify

    frame = make_chart(MONOMIAL, [1, 1])
    perturbed, new_frame = gen_perturb(frame, 0.5)
    assert perturbed.degree == 3
    assert classify(new_frame, 20).aggregate == "hyperbolic"


@pytest.mark.parametrize("poly, seed", [("x*y*z", (1.0, 2.0, 0.5)), ("x*y*z*w", (1.0, 1.2, 0.9, 1.1))])
def test_slice_tangents_are_the_chart_gradient_kernels(poly, seed):
    # one Gram-Schmidt for every tangent basis: the slice kernel is that of grad . basis^T
    frame = make_chart(HomogeneousPolynomial.parse(poly), seed)
    grads = np.array([bp.gradient for bp in boundary_scan(frame, 60)])
    slice_vecs = _boundary_tangent_bases(frame, grads)[1]
    assert slice_vecs.shape == (60, frame.chart_dim - 1, frame.dimension)
    chart_grads = np.matmul(frame.basis, grads[:, :, None])[:, :, 0]
    assert np.array_equal(slice_vecs, tangent_bases(chart_grads) @ frame.basis)
