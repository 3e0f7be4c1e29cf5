import math

import numpy as np
import pytest

from centroaffine import (
    DegenerateFrameError,
    HomogeneousPolynomial,
    SymmetricForm,
    boundary_scan,
    gen_perturb,
    make_chart,
    regularity_report,
)
from centroaffine.boundary import _boundary_rows, _boundary_tangent_bases, _cholesky_rows, _gradient_scale
from centroaffine.chart import tangent_bases, tangent_bases_at
from centroaffine.forms import restrict_rows, signature_rows
from conftest import FIXTURES, linear_copies, random_hyperbolic_cubics, scaled

CURVE = HomogeneousPolynomial.parse("x^3 - x*y^2")
MONOMIAL = HomogeneousPolynomial.parse("x^2*y")


def _scanned(frame, count=None, directions=None):
    """Unit boundary points and their gradients on the bounded scan rays."""
    points = [bp for bp in boundary_scan(frame, count, directions, unbounded_ok=True) if bp is not None]
    return np.array([bp.point for bp in points]).reshape(-1, frame.dimension), np.array([bp.gradient for bp in points])


def _rows(frame, points, grads):
    """Entries and Lorentz determinants of the stacked check, with the floor
    of condition (i) that :func:`regularity_report` uses."""
    return _boundary_rows(frame, points, grads, 1e-6 * _gradient_scale(frame))


def _minus_hessians(frame, points):
    beta = -frame.func.derivative_rows(points, 2)
    return 0.5 * (beta + np.swapaxes(beta, 1, 2))


def _full_signatures(frame, points, grads):
    """(n_pos, n_neg, n_zero) at 1e-6 of minus the Hessian on the full
    boundary tangent space ker dh at each point (nonzero gradients)."""
    return signature_rows(restrict_rows(_minus_hessians(frame, points), tangent_bases(grads)), 1e-6)


def _adapted_grams(frame, points, grads):
    """Gram matrices of minus the Hessian in the adapted boundary frame
    (gradient, ray direction, slice tangents orthonormalized for the slice
    block) at points whose slice block is positive definite."""
    beta, slice_vecs = _minus_hessians(frame, points), _boundary_tangent_bases(frame, grads)
    chol = np.linalg.cholesky(restrict_rows(beta, slice_vecs))
    adapted = np.concatenate([grads[:, None], points[:, None], np.linalg.solve(chol, slice_vecs)], axis=1)
    gram = adapted @ beta @ np.swapaxes(adapted, 1, 2)
    return 0.5 * (gram + np.swapaxes(gram, 1, 2))


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
    entries, _ = _rows(frame, *_scanned(frame, directions=[[1.0], [-1.0]]))
    assert len(entries) == 2
    for entry in entries:
        assert entry.condition_i and entry.condition_ii and entry.regular
    # condition (ii) is vacuous in the planar case: no slice tangent directions
    assert _boundary_tangent_bases(frame, _scanned(frame, directions=[[1.0]])[1]).shape == (1, 0, 2)


def test_regular_check_monomial_faces():
    frame = make_chart(MONOMIAL, [1, 1])
    by_face = {}
    for entry in _rows(frame, *_scanned(frame, directions=[[1.0], [-1.0]]))[0]:
        key = "x_axis" if abs(entry.point[1]) < 1e-8 else "y_axis"
        by_face[key] = entry
    # gradient vanishes where the curve approaches the vertical axis
    assert not by_face["y_axis"].condition_i and not by_face["y_axis"].regular
    assert by_face["y_axis"].condition_ii is None
    assert by_face["x_axis"].condition_i and by_face["x_axis"].regular


def test_adapted_frame_identities():
    # contraction identities of minus the Hessian at a regular boundary point
    frame = make_chart(CURVE, [1, 0])
    bp = boundary_scan(frame, directions=[[1.0]])[0]
    beta = SymmetricForm(-CURVE.hessian(bp.point)).matrix
    x = bp.point
    k = CURVE.degree
    assert abs(x @ beta @ x) <= 1e-12  # -k (k-1) h = 0 on the boundary
    grad = bp.gradient
    c = x @ beta @ grad
    assert abs(c + (k - 1) * grad @ grad) <= 1e-10
    assert c < 0


def test_lorentz_extension_curve():
    frame = make_chart(CURVE, [1, 0])
    points, grads = _scanned(frame, directions=[[1.0]])
    _, det = _rows(frame, points, grads)
    assert abs(det[0] + 16.0) < 1e-9  # -c^2 with c = -4
    assert signature_rows(_adapted_grams(frame, points, grads), 1e-9).tolist() == [[1, 1, 0]]


def test_lorentz_extension_not_applicable_without_gradient():
    frame = make_chart(MONOMIAL, [1, 1])
    points, grads = _scanned(frame, directions=[[-1.0]])
    assert np.linalg.norm(grads[0]) < 1e-8
    (entry,), det = _rows(frame, points, grads)
    assert not entry.condition_i and np.isnan(det[0])
    with pytest.raises(DegenerateFrameError):  # no boundary tangent space to adapt the frame to
        tangent_bases_at(points, grads)


def test_lorentz_extension_quadric_cone():
    # constant-Hessian cone: the extension is Lorentzian along the whole boundary
    quadric = HomogeneousPolynomial.parse("x^2 - y^2 - z^2")
    frame = make_chart(quadric, [1.0, 0.2, 0.1])
    # adapted-basis determinant is -c^2 with c = -(k-1)|grad|^2 = -4 at |x| = 1
    points, grads = _scanned(frame, count=8)
    _, det = _rows(frame, points, grads)
    assert len(det) == 8 and (np.abs(det + 16.0) < 1e-6).all()
    assert (signature_rows(_adapted_grams(frame, points, grads), 1e-9) == (2, 1, 0)).all()


def test_boundary_contraction_identities_quadric_cone():
    # the ray direction is null for minus the Hessian and orthogonal to the
    # boundary tangents inside the slice
    quadric = HomogeneousPolynomial.parse("x^2 - y^2 - z^2")
    frame = make_chart(quadric, [1.0, 0.2, 0.1])
    for bp in boundary_scan(frame, count=6):
        beta = SymmetricForm(-quadric.hessian(bp.point))
        scale = max(1.0, beta.scale)
        assert abs(bp.point @ beta.matrix @ bp.point) <= 1e-8 * scale
        (slice_vecs,) = _boundary_tangent_bases(frame, bp.gradient[None])
        assert len(slice_vecs) == 1
        for y in slice_vecs:
            assert abs(bp.point @ beta.matrix @ y) <= 1e-8 * scale


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
    points = np.array([e.point for e in face_entries])
    assert set(_full_signatures(frame, points, poly.derivative_rows(points, 1))[:, 2].tolist()) == {2}


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
        frame = make_chart(poly, seed)
        report = regularity_report(frame)
        block = report.to_json()
        points = np.array([e.point for e in report.entries if e.condition_i]).reshape(-1, poly.dimension)
        kernels = _full_signatures(frame, points, poly.derivative_rows(points, 1))[:, 2].tolist()
        return report.regular, block["condition_i_failures"], block["condition_ii_failures"], kernels

    poly = HomogeneousPolynomial.parse(expr)
    expected = summary(poly)
    for lam in (1e-3, 0.02, 37.5, 1e3):
        assert summary(scaled(poly, lam)) == expected, lam


@pytest.fixture(scope="module")
def scans(catalog_frames):
    """(frame, boundary points, gradients, entries, determinants) of the
    default scan of the catalog frames, nine random cubics in 2-4
    variables, and the fixtures with three random linear copies of each."""
    frames = [frame for _, frame in catalog_frames.values()]
    frames += [frame for _, frame in random_hyperbolic_cubics(count=9, seed=1)]
    rng = np.random.default_rng(29)
    for expr, seed, *_ in FIXTURES:
        poly = HomogeneousPolynomial.parse(expr)
        frames += [make_chart(poly, seed)] + [make_chart(q, y0) for q, y0 in linear_copies(poly, seed, rng, 3)]
    out = []
    for frame in frames:
        points, grads = _scanned(frame)
        out.append((frame, points, grads, *_rows(frame, points, grads)))
    return out


def test_regularity_rows_equal_one_row_checks(scans):
    # the stacked pass gives at every scanned point what one row gives there
    checked = 0
    for frame, points, grads, entries, dets in scans:
        assert entries == regularity_report(frame).entries
        for i, det in enumerate(dets.tolist()):
            (entry,), (one,) = _rows(frame, points[i : i + 1], grads[i : i + 1])
            assert entry == entries[i]
            assert (math.isnan(one) and math.isnan(det)) or abs(one - det) <= 1e-12 * abs(det)
            checked += not math.isnan(det)
    assert checked > 3000  # Lorentz determinants compared


def test_slice_form_of_condition_ii_is_the_full_tangent_space_form(scans):
    # minus the Hessian is positive definite on the slice tangents exactly
    # where it is semidefinite with a one-dimensional kernel (the ray) on ker dh
    checked = 0
    for frame, points, grads, entries, _ in scans:
        face = [i for i, e in enumerate(entries) if e.condition_i]
        for i, (_, n_neg, n_zero) in zip(face, _full_signatures(frame, points[face], grads[face]).tolist()):
            assert entries[i].condition_ii == (n_neg == 0 and n_zero == 1), (frame, points[i])
        checked += len(face)
    assert checked > 8000


def test_negative_extension_determinant_forces_lorentz_signature(scans):
    # the adapted Gram matrix has the identity as its slice block, so by
    # Cauchy interlacing det < 0 leaves only the signature (d-1, 1, 0)
    checked = 0
    for frame, points, grads, _, dets in scans:
        neg = np.flatnonzero(dets < 0.0)
        grams = _adapted_grams(frame, points[neg], grads[neg])
        assert (np.abs(np.linalg.det(grams) - dets[neg]) <= 1e-9 * np.abs(dets[neg])).all()
        assert (signature_rows(grams, 1e-9) == (frame.dimension - 1, 1, 0)).all(), frame
        checked += len(neg)
    assert checked > 3000


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
    slice_vecs = _boundary_tangent_bases(frame, grads)
    assert slice_vecs.shape == (60, frame.chart_dim - 1, frame.dimension)
    chart_grads = np.matmul(frame.basis, grads[:, :, None])[:, :, 0]
    assert np.array_equal(slice_vecs, tangent_bases(chart_grads) @ frame.basis)
