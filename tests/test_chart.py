import math

import numpy as np
import pytest

from centroaffine import (
    ConsistencyError,
    DegenerateFrameError,
    DomainError,
    HomogeneousPolynomial,
    SmoothHomogeneousMap,
    UnboundedRayError,
    centroaffine_metric_ambient,
    chart_metric,
    chart_metric_consistency,
    classify,
    cone_identity_residual,
    lorentz_identity_residuals,
    lorentz_metric,
    make_chart,
    radial_projection,
    slice_chart,
)
from centroaffine.catalog import analytic_example, analytic_map
from centroaffine.chart import chart_metric_with_derivative, christoffel, jet_connection, tangent_bases
from centroaffine.homogeneous import restrict_to_line

CURVE = HomogeneousPolynomial.parse("x^3 - x*y^2")
MONOMIAL = HomogeneousPolynomial.parse("x^2*y")


# -- frames and projection -----------------------------------------------------


def test_make_chart_normalizes_seed():
    frame = make_chart(CURVE, [2, 0])
    assert np.allclose(frame.origin, [1.0, 0.0], atol=1e-15)
    assert np.allclose(np.abs(frame.basis), [[0.0, 1.0]], atol=1e-15)


def test_make_chart_seed_already_on_level_set():
    frame = make_chart(MONOMIAL, [1, 1])
    assert np.allclose(frame.origin, [1.0, 1.0], atol=1e-14)


def test_make_chart_rejects_nonpositive_seed():
    with pytest.raises(DomainError):
        make_chart(MONOMIAL, [1, -1])
    neg = HomogeneousPolynomial({(2, 0): -1.0, (0, 2): -1.0})
    with pytest.raises(DomainError):
        make_chart(neg, [1.0, 0.5])


def test_make_chart_rejects_degenerate_gradient():
    flat = SmoothHomogeneousMap(
        dimension=2,
        degree=2.0,
        value=lambda x: 1.0,
        gradient=lambda x: np.zeros(2),
        hessian=lambda x: np.zeros((2, 2)),
    )
    with pytest.raises(DegenerateFrameError):
        make_chart(flat, [1.0, 0.0])


def test_radial_projection_examples():
    assert np.allclose(radial_projection(MONOMIAL, [2, 2]), [1.0, 1.0], atol=1e-15)
    assert np.allclose(radial_projection(CURVE, [2, 0]), [1.0, 0.0], atol=1e-15)
    q = radial_projection(CURVE, [1.4, 0.3])
    assert np.allclose(radial_projection(CURVE, q), q, atol=1e-12)  # idempotent
    for lam in (0.3, 2.0, 17.0):
        assert np.allclose(radial_projection(CURVE, lam * np.array([1.4, 0.3])), q, atol=1e-12)
    with pytest.raises(DomainError):
        radial_projection(MONOMIAL, [1, -1])


def test_frame_invariants():
    frame = make_chart(MONOMIAL, [3, 3])
    assert abs(frame.func(frame.origin) - 1.0) <= 1e-12
    gnorm = np.linalg.norm(frame.normal)
    assert np.abs(frame.basis @ frame.normal).max() <= 1e-10 * gnorm
    k = frame.degree
    assert abs(frame.normal @ frame.origin - k) <= 1e-10 * k


# -- ambient metric --------------------------------------------------------------


def test_ambient_metric_examples():
    form, _ = centroaffine_metric_ambient(CURVE, [1, 0], basis=[[0, 1]])
    assert abs(form.matrix[0, 0] - 2.0 / 3.0) < 1e-15
    form2, _ = centroaffine_metric_ambient(MONOMIAL, [1, 1], basis=[[1, -2]])
    assert abs(form2.matrix[0, 0] - 2.0) < 1e-14


def test_ambient_metric_constant_hessian_quadric():
    # for a quadratic form the ambient Hessian is constant, so the metric value
    # depends only on the tangent vector
    sphere = HomogeneousPolynomial.parse("x^2 + y^2")
    form, _ = centroaffine_metric_ambient(sphere, [1, 0], basis=[[0, 1]])
    assert abs(form.matrix[0, 0] + 1.0) < 1e-15  # -(1/2) * 2


def test_ambient_metric_requires_level_point():
    with pytest.raises(DomainError):
        centroaffine_metric_ambient(CURVE, [2, 0])


# -- chart metric routes -----------------------------------------------------------


def test_three_routes_agree_on_catalog(catalog_frames):
    for poly, frame in catalog_frames.values():
        for c in frame.sample_coords(40, max_frac=0.85, seed=2):
            assert chart_metric_consistency(frame, c) <= 1e-8


def test_three_routes_agree_on_analytic_example():
    _, frame = analytic_example(2.0)
    for c in np.linspace(-0.45, 0.45, 19):
        assert chart_metric_consistency(frame, [c]) <= 1e-8


def test_chart_metric_value_analytic():
    _, frame = analytic_example(2.0)
    for method in ("pullback", "psi_formula", "u_formula"):
        g = chart_metric(frame, [0.25 - 0.5], method).matrix[0, 0]
        assert abs(g - 32.0 / 3.0) < 1e-10 * (32.0 / 3.0)


def test_chart_metric_matches_ambient_at_origin():
    frame = make_chart(CURVE, [1, 0])
    g = chart_metric(frame, [0.0]).matrix[0, 0]
    assert abs(g - 2.0 / 3.0) < 1e-14


def test_chart_metric_outside_region_raises():
    frame = make_chart(CURVE, [1, 0])
    with pytest.raises(DomainError):
        chart_metric(frame, [1.5])


def test_consistency_negative_control():
    base = analytic_map(2.0)
    corrupted = SmoothHomogeneousMap(
        dimension=2,
        degree=2.0,
        value=base.__call__,
        gradient=base.gradient,
        hessian=lambda x: 1.01 * base.hessian(x),
        third=base.third_tensor,
        in_domain=base.contains,
    )
    frame = slice_chart(corrupted, [0.5, 0.5], [[1.0, -1.0]])
    with pytest.raises(ConsistencyError):
        chart_metric_consistency(frame, [0.1])


def test_metric_derivative_matches_finite_differences(catalog_frames):
    for poly, frame in catalog_frames.values():
        c0 = 0.05 * np.ones(frame.chart_dim)
        g, dg = chart_metric_with_derivative(frame, c0)
        assert np.allclose(g, chart_metric(frame, c0, "psi_formula").matrix, atol=1e-13)
        eps = 1e-6
        for i in range(frame.chart_dim):
            e = np.zeros(frame.chart_dim)
            e[i] = eps
            fd = (
                chart_metric(frame, c0 + e, "psi_formula").matrix
                - chart_metric(frame, c0 - e, "psi_formula").matrix
            ) / (2 * eps)
            assert np.allclose(dg[i], fd, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_christoffel_raises_on_a_singular_metric(n):
    # a zero metric, and a rank-one metric whose elimination is exact (n > 1),
    # raise LinAlgError, as np.linalg.solve does, and not a nan connection
    rng = np.random.default_rng(n)
    dg = rng.standard_normal((n, n, n))
    u = np.array([1.0, -2.0, 0.5])[:n]
    singular = [np.zeros((n, n))] + ([np.outer(u, u)] if n > 1 else [])
    for g in singular:
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            np.linalg.solve(g, dg.reshape(n, n * n))
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            christoffel(g, dg)
    # the chart jet of a vanishing metric: zero gradient and Hessian
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        jet_connection(3.0, 1.0, np.zeros(n), np.zeros((n, n)), dg)


# -- classification ------------------------------------------------------------------


def test_classify_catalog(catalog_frames):
    for poly, frame in catalog_frames.values():
        assert classify(frame, 40, seed=1).aggregate == "hyperbolic"


def test_classify_elliptic_quadric():
    sphere = HomogeneousPolynomial.parse("x^2 + y^2")
    frame = make_chart(sphere, [1.0, 0.2])
    assert classify(frame, 30).aggregate == "elliptic"


def test_classify_mixed_piece_reports_witnesses():
    piece = HomogeneousPolynomial.parse("x^3 + y^3")
    frame = make_chart(piece, [2 ** (1 / 3), -1.0])
    result = classify(frame, 60, seed=4)
    assert result.aggregate == "indefinite"
    assert result.witnesses


# -- cone metric -----------------------------------------------------------------------


def test_lorentz_metric_example():
    form = lorentz_metric(CURVE, [1, 0])
    assert np.allclose(form.matrix, [[-2.0, 0.0], [0.0, 2.0 / 3.0]], atol=1e-15)
    assert abs(form.value([1, 0], [1, 0]) + 2.0) < 1e-14


def test_lorentz_metric_signature():
    form = lorentz_metric(MONOMIAL, [1, 1])
    assert form.signature()[:3] == (1, 1, 0)


def test_lorentz_metric_scaling():
    x = np.array([1.2, 0.4])
    base = lorentz_metric(CURVE, x, validate=False).matrix
    for lam in (0.5, 3.0):
        scaled = lorentz_metric(CURVE, lam * x, validate=False).matrix
        assert np.allclose(scaled, lam ** (CURVE.degree - 2) * base, rtol=1e-12)


def test_lorentz_metric_rejects_elliptic():
    sphere = HomogeneousPolynomial.parse("x^2 + y^2")
    with pytest.raises(ValueError) as err:
        lorentz_metric(sphere, [1, 0])
    assert "eigenvalues" in str(err.value)


def test_lorentz_identities_random_points(catalog_frames):
    rng = np.random.default_rng(23)
    for poly, frame in catalog_frames.values():
        k = poly.degree
        checked = 0
        while checked < 1000:
            x = frame.origin + 0.3 * rng.standard_normal(poly.dimension)
            hx = poly(x)
            if hx <= 0:
                continue
            checked += 1
            res = lorentz_identity_residuals(poly, x)
            assert res["radial"] <= 1e-10 * (1.0 + (k - 1) * abs(hx))
            scale = 1.0 + (k - 1) * float(np.abs(poly.gradient(x)).max())
            assert res["gradient"] <= 1e-10 * scale


def test_cone_identity_on_level_set():
    frame = make_chart(CURVE, [1, 0])
    res = cone_identity_residual(frame, np.array([1.0, 0.0]))
    assert res <= 1e-8


def test_cone_identity_at_scaled_points():
    frame = make_chart(CURVE, [1, 0])
    for lam in (0.5, 2.0):
        x = lam * np.array([1.0, 0.3])
        res = cone_identity_residual(frame, x)
        scale = max(1.0, np.abs(lorentz_metric(CURVE, x, validate=False).matrix).max())
        assert res <= 1e-6 * scale


def test_cone_identity_negative_control():
    base = analytic_map(2.0)
    corrupted = SmoothHomogeneousMap(
        dimension=2,
        degree=2.0,
        value=base.__call__,
        gradient=base.gradient,
        hessian=lambda x: 1.05 * base.hessian(x),
        third=base.third_tensor,
        in_domain=base.contains,
    )
    frame = slice_chart(corrupted, [0.5, 0.5], [[1.0, -1.0]])
    assert cone_identity_residual(frame, np.array([0.6, 0.55])) > 1e-3


# -- boundary distances -------------------------------------------------------------------


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boundary_distance_exact_for_polynomials():
    frame = make_chart(CURVE, [1, 0])
    assert abs(frame.boundary_distance([0.0], [1.0]) - 1.0) < 1e-12
    frame2 = make_chart(MONOMIAL, [1, 1])
    assert abs(frame2.boundary_distance([0.0], [1.0]) - math.sqrt(5) / 2) < 1e-10
    assert abs(frame2.boundary_distance([0.0], [-1.0]) - math.sqrt(5)) < 1e-6


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boundary_distance_simple_zero_among_close_zeros():
    # The restriction of this quartic to the chart ray has simple zeros at
    # 12.18025485, 12.18957636 and 12.20644543 (mpmath, 50 digits, on the
    # rounded restriction coefficients).  At the first, the derivative is
    # only 1e-7 of the size of its terms, so the zero can pass for a double
    # one, and bisecting the derivative lands on a critical point (12.1921,
    # where h = +9.4e-10).
    quartic = HomogeneousPolynomial.parse(
        "0.10337628258511589*x^4 - 0.04509952509953923*x^3*y - 0.25662316401314644*x^2*y^2"
        " + 0.09368762618554319*x*y^3 + 0.028107554221014054*y^4"
    )
    frame = make_chart(quartic, [-0.4029772338434734, 2.037614522295843])
    t = frame.boundary_distance([0.0], [1.0])
    assert abs(t - 12.180254852554984) <= 1e-9
    line = restrict_to_line(quartic, frame.origin, frame.basis[0]).coefficients
    pv = np.polynomial.polynomial.polyval
    assert pv(t - 1e-7, line) > 0.0 > pv(t + 1e-7, line)
    # h along the ray, evaluated without the rounded restriction, changes
    # sign 6e-8 further out
    assert frame.hval([t - 1e-6]) > 0.0 > frame.hval([t + 1e-6])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boundary_distance_map_bisection():
    _, frame = analytic_example(2.0)
    assert abs(frame.boundary_distance([0.0], [1.0]) - 0.5) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [1.5, 2.0])
def test_map_bisection_ends_at_adjacent_floats(k):
    # the analytic chart ends at exactly +-1/2; the bisection runs until its
    # bracket is two adjacent floats, so the witness lacks no end piece
    _, frame = analytic_example(k)
    assert frame.boundary_distances([0.0], [[1.0], [-1.0]]).tolist() == [0.5, 0.5]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boundary_distance_unbounded_ray():
    piece = HomogeneousPolynomial.parse("x^3 + y^3")
    frame = make_chart(piece, [2 ** (1 / 3), -1.0])
    with pytest.raises(UnboundedRayError):
        # toward the interior of the half-plane the value never vanishes
        frame.boundary_distance([0.0], [-1.0])
    assert frame.boundary_distance([0.0], [1.0]) < 10.0  # the other side exits


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boundary_distances_reject_false_zeros_of_the_unscaled_solve():
    # Slice charts of y^5 p(x/y) through (0, 1) along (1, 0), whose ray from
    # the origin restricts to p, the Taylor rows of boundary-layer rays of
    # x^2*y*z*w.  The unscaled solve takes the real part of a close complex
    # pair, a positive minimum of p, for a zero; references are mpmath's
    # polyroots at 80 digits.
    grazing = [3.940328067247122e-30, -6.976383253217805e-21, 3.0854005218915664e-12]
    grazing += [2.244527435649706e-06, 0.407869860398352, 0.019527930734048262]
    beyond = [3.558959636210667e-31, -9.77987457541532e-25, 9.943635643715648e-19]
    beyond += [-4.4310317500070113e-13, 7.305770694405531e-08, 1.3070557540022131e-08]

    def solve(p):
        frame = slice_chart(HomogeneousPolynomial({(i, 5 - i): c for i, c in enumerate(p)}), [0.0, 1.0], [[1.0, 0.0]])
        t, m = frame.boundary_distances(np.zeros(1), np.ones((1, 1)), multiplicity=True)
        return float(t[0]), int(m[0])

    assert solve(grazing) == (math.inf, 0)  # zeros 1.12916e-9 +- 9.7e-16 i, not 1.1291557751213815e-9
    t, m = solve(beyond)
    assert abs(t / 1.819457563156878e-6 - 1.0) <= 1e-9 and m == 1  # not 1.2130213269381133e-6


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boundary_distances_rows_equal_one_row_calls():
    rng = np.random.default_rng(8)
    cases = [
        (HomogeneousPolynomial.parse("x^2*y*z"), [1.0, 1.0, 1.0]),
        (HomogeneousPolynomial.parse("x*y*z*w"), [1.0, 2.0, 1.0, 0.5]),
        (HomogeneousPolynomial.parse("x^3 + y^3"), [2 ** (1 / 3), -1.0]),
        (CURVE, [1.0, 0.2]),
    ]
    for poly, seed in cases:
        frame = make_chart(poly, seed)
        base = 0.1 * rng.standard_normal(frame.chart_dim)
        dirs = rng.standard_normal((25, frame.chart_dim))
        dirs[:2] = np.vstack([np.eye(frame.chart_dim)[:1], -np.eye(frame.chart_dim)[:1]])
        dists, mults = frame.boundary_distances(base, dirs, multiplicity=True)
        for d, t, m in zip(dirs, dists, mults):
            if math.isinf(t):
                assert m == 0
                with pytest.raises(UnboundedRayError):
                    frame.boundary_distance(base, d)
            else:
                assert m >= 1 and frame.boundary_distance(base, d) == t
    # the piece of x^3 + y^3 is unbounded on one side: inf, no exception
    assert list(np.isinf(make_chart(*cases[2]).boundary_distances([0.0], [[1.0], [-1.0]]))) == [False, True]


def _first_positive_mp_zero(coeffs, dps=60):
    """Smallest positive real zero of the polynomial with these (mpmath or
    float) coefficients, lowest order first, by mpmath at ``dps`` digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in coeffs[::-1]], maxsteps=500, extraprec=4 * dps)
        # a k-fold zero converges only to about 10^(-dps/k) off the axis
        real = [float(r.real) for r in roots if abs(r.imag) < 1e-13 * max(1.0, abs(r))]
    return min(r for r in real if r > 0.0)


def _exact_restriction(poly, x, v, dps=60):
    """Coefficients of t -> poly(x + t v) at ``dps`` digits, from the exact
    binary values of x and v."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        total = [mpmath.mpf(0)] * (poly.degree + 1)
        for exp, coeff in poly.terms.items():
            factor = [mpmath.mpf(coeff)]
            for xi, vi, e in zip(x, v, exp):
                for _ in range(e):  # times (xi + t vi)
                    grown = [mpmath.mpf(0)] * (len(factor) + 1)
                    for j, a in enumerate(factor):
                        grown[j] += a * mpmath.mpf(xi)
                        grown[j + 1] += a * mpmath.mpf(vi)
                    factor = grown
            for j, a in enumerate(factor):
                total[j] += a
    return total


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boundary_distances_match_mpmath_roots():
    rng = np.random.default_rng(21)
    # random binary and ternary quartics and cubics with a positive value at
    # the seed; the oracle solves the restriction coefficients the code uses
    checked = 0
    while checked < 200:
        dim = int(rng.integers(2, 4))
        poly = HomogeneousPolynomial({tuple(e): rng.uniform(-1, 1) for e in _exponents(dim, 4)})
        seed = rng.standard_normal(dim)
        if poly(seed) <= 0.0:
            continue
        frame = make_chart(poly, seed)
        dirs = rng.standard_normal((5, frame.chart_dim))
        dists = frame.boundary_distances(np.zeros(frame.chart_dim), dirs)
        for d, t in zip(dirs, dists):
            if math.isfinite(t):
                line = restrict_to_line(poly, frame.origin, frame.vectors(d)[0]).coefficients
                assert abs(t - _first_positive_mp_zero(line)) <= 1e-12 * t
                checked += 1
    # multiple zeros: rounding splits them in the rounded coefficients, so
    # the oracle solves the exact restriction
    for expr, seed in (("x^2*y*z", [1.0, 1.0, 1.0]), ("x^6 + x^4*y^2", [1.0, 0.5])):
        poly = HomogeneousPolynomial.parse(expr)
        frame = make_chart(poly, seed)
        dirs = rng.standard_normal((30, frame.chart_dim))
        dists, mults = frame.boundary_distances(np.zeros(frame.chart_dim), dirs, multiplicity=True)
        assert mults.max() >= 2
        for d, t in zip(dirs, dists):
            if math.isfinite(t):
                exact = _exact_restriction(poly, frame.origin, frame.vectors(d)[0])
                assert abs(t - _first_positive_mp_zero(exact)) <= 1e-12 * t
    # the close zeros of the quartic in the test above: ill-conditioned, so
    # against the rounded coefficients
    quartic = HomogeneousPolynomial.parse(
        "0.10337628258511589*x^4 - 0.04509952509953923*x^3*y - 0.25662316401314644*x^2*y^2"
        " + 0.09368762618554319*x*y^3 + 0.028107554221014054*y^4"
    )
    frame = make_chart(quartic, [-0.4029772338434734, 2.037614522295843])
    t = frame.boundary_distance([0.0], [1.0])
    line = restrict_to_line(quartic, frame.origin, frame.basis[0]).coefficients
    assert abs(t - _first_positive_mp_zero(line)) <= 1e-12 * t


def _exponents(dim, degree):
    import itertools

    out = set()
    for combo in itertools.combinations_with_replacement(range(dim), degree):
        e = [0] * dim
        for i in combo:
            e[i] += 1
        out.add(tuple(e))
    return sorted(out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boundary_distances_of_a_map():
    _, frame = analytic_example(2.0)
    dists = frame.boundary_distances([0.0], [[1.0], [-1.0]])
    assert abs(dists[0] - 0.5) < 1e-12 and dists[1] == frame.boundary_distance([0.0], [-1.0])


def _gram_schmidt_loop(grad):
    # the one-point Gram-Schmidt that tangent_bases reproduces row by row
    unit_normal = grad / np.linalg.norm(grad)
    basis = []
    for i in range(grad.size):
        v = np.zeros(grad.size)
        v[i] = 1.0
        v = v - (v @ unit_normal) * unit_normal
        for b in basis:
            v = v - (v @ b) * b
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            basis.append(v / norm)
        if len(basis) == grad.size - 1:
            break
    return np.array(basis)


def test_tangent_bases_round_as_the_one_point_loop():
    rng = np.random.default_rng(23)
    for d in (2, 3, 4, 5):
        grads = rng.standard_normal((400, d))
        grads[::7, rng.integers(d)] = 0.0
        grads[1::7, rng.integers(d)] = 1e-9
        grads[2::7] = 0.0
        grads[2::7, d - 1] = -2.0  # a skipped standard vector
        rows = tangent_bases(grads)
        for g, basis in zip(grads, rows):
            assert basis.tobytes() == _gram_schmidt_loop(g).tobytes()
