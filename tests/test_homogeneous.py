import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from centroaffine import (
    DomainError,
    HomogeneousPolynomial,
    MixedDegreeError,
    ParseError,
    polarization,
    restrict_to_line,
)
from centroaffine.catalog import analytic_map
from centroaffine.homogeneous import (
    euler_residual_rows,
    first_positive_zero,
    first_positive_zero_rows,
    line_coefficients,
    no_zero_below,
    position_identity_residual_rows,
    polyval_rows,
    univariate_zeros,
    univariate_zeros_rows,
)

from conftest import CallableMap, _old_derivative, _old_value_rows, fd_gradient, fd_hessian, fd_third


# -- parsing -----------------------------------------------------------------


def test_parse_cubic_difference():
    p = HomogeneousPolynomial.parse("x^3 - x*y^2")
    assert p.terms == {(3, 0): 1.0, (1, 2): -1.0}
    assert p.degree == 3 and p.dimension == 2


def test_parse_monomial():
    p = HomogeneousPolynomial.parse("x^2*y")
    assert p.terms == {(2, 1): 1.0}
    assert p.degree == 3


def test_parse_mixed_degree_names_offenders():
    with pytest.raises(MixedDegreeError) as err:
        HomogeneousPolynomial.parse("x^3 + x^2")
    assert "x^3" in str(err.value) and "x^2" in str(err.value)


def test_parse_accepts_terms_that_cancel():
    # the degree check sees the summed nonzero terms only
    assert HomogeneousPolynomial.parse("x^3*y + x^2 - x^2") == HomogeneousPolynomial.parse("x^3*y")


def test_parse_coefficients_and_indexed_vars():
    p = HomogeneousPolynomial.parse("2*x0^2*x1 - 0.5*x1^3")
    assert p.terms == {(2, 1): 2.0, (0, 3): -0.5}


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        HomogeneousPolynomial.parse("x^3 + $")
    assert err.value.position == 6


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        HomogeneousPolynomial.parse("2x^3")


def test_parse_rejects_mixed_variable_styles():
    with pytest.raises(ParseError):
        HomogeneousPolynomial.parse("x0^2*y")


def test_serialize_round_trip_examples():
    for text in ("x^3 - x*y^2", "x^2*y", "x*y*z", "2*x^2*y - 0.25*y^3"):
        p = HomogeneousPolynomial.parse(text)
        assert HomogeneousPolynomial.parse(p.serialize()) == p


def test_json_round_trip():
    p = HomogeneousPolynomial.parse("x^3 - x*y^2")
    q = HomogeneousPolynomial.from_json(json.loads(json.dumps(p.to_json())))  # as --poly reads it
    assert q == p
    assert p.to_json() == {
        "dim": 2,
        "degree": 3,
        "terms": [{"exp": [3, 0], "c": 1.0}, {"exp": [1, 2], "c": -1.0}],
    }


@st.composite
def homogeneous_terms(draw):
    dim = draw(st.integers(min_value=2, max_value=4))
    degree = draw(st.integers(min_value=2, max_value=4))
    n_terms = draw(st.integers(min_value=1, max_value=5))
    terms = {}
    for _ in range(n_terms):
        cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=dim - 1, max_size=dim - 1)))
        exp = []
        prev = 0
        for c in cuts + [degree]:
            exp.append(c - prev)
            prev = c
        coeff = draw(
            st.floats(min_value=-8, max_value=8, allow_nan=False).filter(lambda v: abs(v) > 1e-3)
        )
        terms[tuple(exp)] = coeff
    return terms


@settings(max_examples=60, derandomize=True, deadline=None)
@given(homogeneous_terms())
def test_serialize_parse_round_trip_property(terms):
    try:
        p = HomogeneousPolynomial(terms)
    except ValueError:
        return  # all coefficients cancelled
    assert HomogeneousPolynomial.parse(p.serialize(), dimension=p.dimension) == p


# -- evaluation and derivatives ------------------------------------------------


def test_evaluate_examples():
    assert HomogeneousPolynomial.parse("x^3 - x*y^2")([1, 0]) == 1.0
    assert HomogeneousPolynomial.parse("x^2*y")([2, 1]) == 4.0
    assert abs(analytic_map(2.0)([1.0, 1.0]) - 0.25) < 1e-15


def test_hessian_examples():
    p = HomogeneousPolynomial.parse("x^3 - x*y^2")
    assert np.allclose(p.hessian([1, 0]), [[6.0, 0.0], [0.0, -2.0]], atol=0)
    q = HomogeneousPolynomial.parse("x^2*y")
    assert np.allclose(q.hessian([1, 1]), [[2.0, 2.0], [2.0, 0.0]], atol=0)


def test_gradient_vanishes_at_origin():
    for text in ("x^3 - x*y^2", "x^2*y", "x*y*z"):
        p = HomogeneousPolynomial.parse(text)
        assert np.all(p.gradient(np.zeros(p.dimension)) == 0.0)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(5)
    for text in ("x^3 - x*y^2", "x^2*y", "x*y*z", "x^2*y*z"):
        p = HomogeneousPolynomial.parse(text)
        for _ in range(4):
            x = rng.uniform(0.5, 1.5, p.dimension)
            assert np.allclose(p.gradient(x), fd_gradient(p, x), rtol=1e-7, atol=1e-7)
            assert np.allclose(p.hessian(x), fd_hessian(p, x), rtol=1e-5, atol=1e-5)
            assert np.allclose(p.third_tensor(x), fd_third(p, x), rtol=1e-6, atol=1e-6)


def test_derivatives_match_symbolic_oracle():
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x y")
    expr = xs[0] ** 3 - xs[0] * xs[1] ** 2
    p = HomogeneousPolynomial.parse("x^3 - x*y^2")
    pt = {xs[0]: 1.3, xs[1]: -0.4}
    grad_sym = [float(sympy.diff(expr, v).subs(pt)) for v in xs]
    hess_sym = [[float(sympy.diff(expr, a, b).subs(pt)) for b in xs] for a in xs]
    x = np.array([1.3, -0.4])
    assert np.allclose(p.gradient(x), grad_sym, rtol=1e-12)
    assert np.allclose(p.hessian(x), hess_sym, rtol=1e-12)


def test_hessian_and_third_are_exactly_symmetric():
    p = HomogeneousPolynomial.parse("x^2*y*z")
    x = np.array([1.2, 0.7, 0.9, 0.0][: p.dimension])
    hess = p.hessian(x)
    assert np.array_equal(hess, hess.T)
    t = p.third_tensor(x)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert np.array_equal(t, np.transpose(t, perm))


# -- homogeneity identities ------------------------------------------------------


def _euler(func, points):
    """Euler residuals at the rows of ``points``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return euler_residual_rows(func.degree, points, func.derivative_rows(points, 0), func.derivative_rows(points, 1))


def _position(func, points):
    """Position-identity residuals at the rows of ``points``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return position_identity_residual_rows(
        func.degree, points, func.derivative_rows(points, 1), func.derivative_rows(points, 2)
    )


def test_euler_residual_examples():
    p = HomogeneousPolynomial.parse("x^3 - x*y^2")
    assert abs(_euler(p, [2, 1])[0]) <= 1e-12 * (1 + abs(p([2, 1])))
    amap = analytic_map(3.0)
    assert abs(_euler(amap, [1, 2])[0]) <= 1e-10


def test_euler_residual_many_points(catalog_frames):
    rng = np.random.default_rng(11)
    for poly, _ in catalog_frames.values():
        x = rng.uniform(-2, 2, (1000, poly.dimension))
        assert (np.abs(_euler(poly, x)) <= 1e-12 * (1.0 + np.abs(poly.derivative_rows(x, 0)))).all()


def test_euler_residual_negative_control():
    # an inconsistent degree field models a corrupted coefficient table
    p = HomogeneousPolynomial.parse("x^3 - x*y^2")
    corrupted = CallableMap(dimension=2, degree=4.0, value=p.__call__, gradient=p.gradient, hessian=p.hessian)
    assert abs(_euler(corrupted, [1.2, 0.3])[0]) > 1e-3


def test_position_identity_examples():
    q = HomogeneousPolynomial.parse("x^2*y")
    x = np.array([1.0, 1.0])
    assert np.allclose(q.hessian(x) @ x, [4.0, 2.0], atol=0)
    assert _position(q, x)[0] == 0.0
    quad = HomogeneousPolynomial.parse("x^2 + 3*x*y - y^2")
    assert _position(quad, [0.7, -2.1])[0] <= 1e-14
    amap = analytic_map(2.0)
    assert _position(amap, [1.0, 1.0])[0] <= 1e-9


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.integers(min_value=0, max_value=6),
)
def test_scaling_covariance(lam, order):
    # the one-point evaluator at every order, those above 3 (which only the
    # boundary layer asks for) and above the degree (zero) included
    x = np.array([1.1, 0.4])
    for p in map(HomogeneousPolynomial.parse, ("x^3 - x*y^2 + 0.5*y^3", "x^6 - 3*x^4*y^2 + 0.5*x*y^5")):
        k = p.degree
        if order == 0:
            left, right = p(lam * x), lam**k * p(x)
            assert abs(left - right) <= 1e-10 * (1 + abs(right))
        else:
            left = p._evaluate(lam * x, (order,))[0]
            right = lam ** (k - order) * p._evaluate(x, (order,))[0]
            assert np.allclose(left, right, rtol=1e-10, atol=1e-12)


def test_scaling_covariance_map():
    amap = analytic_map(2.5)
    x = np.array([0.8, 1.3])
    for lam in (0.3, 2.0, 7.5):
        k = amap.degree
        assert abs(amap(lam * x) - lam**k * amap(x)) <= 1e-8 * (1 + abs(amap(x)))
        assert np.allclose(amap.gradient(lam * x), lam ** (k - 1) * amap.gradient(x), rtol=1e-8)
        assert np.allclose(amap.hessian(lam * x), lam ** (k - 2) * amap.hessian(x), rtol=1e-8)
        assert np.allclose(
            amap.third_tensor(lam * x), lam ** (k - 3) * amap.third_tensor(x), rtol=1e-8
        )


# -- line restrictions -------------------------------------------------------------


def test_restrict_to_line_examples():
    p = HomogeneousPolynomial.parse("x^3 - x*y^2")
    r = restrict_to_line(p, [1, 0], [0, 1])
    assert np.allclose(r, [1.0, 0.0, -1.0, 0.0], atol=0)
    q = HomogeneousPolynomial.parse("x^2*y")
    r2 = restrict_to_line(q, [1, 1], [1, -2])
    # (1 + t)^2 (1 - 2 t) = 1 - 3 t^2 - 2 t^3
    assert np.allclose(r2, [1.0, 0.0, -3.0, -2.0], atol=1e-15)


def test_restrict_to_line_rejects_zero_direction():
    p = HomogeneousPolynomial.parse("x^2*y")
    with pytest.raises(ValueError):
        restrict_to_line(p, [1, 1], [0, 0])


def test_restriction_agrees_with_evaluation():
    rng = np.random.default_rng(3)
    p = HomogeneousPolynomial.parse("x^3 - x*y^2 + 0.25*y^3")
    x = np.array([1.2, -0.3])
    v = np.array([0.4, 1.0])
    r = restrict_to_line(p, x, v)
    for t in rng.uniform(-2, 2, 50):
        direct = p(x + t * v)
        assert abs(np.polynomial.polynomial.polyval(t, r) - direct) <= 1e-12 * (1.0 + abs(direct))


# -- polarization -------------------------------------------------------------------


def test_polarization_examples():
    q = HomogeneousPolynomial.parse("x^2*y")
    tri = polarization(q)
    assert abs(tri[0, 0, 1] - 1.0 / 3.0) < 1e-15
    v = np.array([1.0, -2.0])
    assert abs(np.einsum("abc,a,b,c->", tri, v, v, v) - q(v)) < 1e-14
    cube = HomogeneousPolynomial.parse("x^3", dimension=1)
    assert polarization(cube)[0, 0, 0] == 1.0


def test_polarization_reproduces_diagonal():
    rng = np.random.default_rng(9)
    p = HomogeneousPolynomial.parse("x^3 - x*y^2 + 2*x*y*z - 0.5*z^3")
    tri = polarization(p)
    for _ in range(100):
        v = rng.uniform(-2, 2, 3)
        val = p(v)
        assert abs(np.einsum("abc,a,b,c->", tri, v, v, v) - val) <= 1e-12 * (1 + abs(val))


def test_polarization_rejects_non_cubic():
    with pytest.raises(ValueError):
        polarization(HomogeneousPolynomial.parse("x^2 + y^2"))


# -- root helper ---------------------------------------------------------------------


def test_univariate_zeros_handles_touch_roots():
    # (1 - t^2)^2 touches zero at +-1 without a sign change
    coeffs = np.polynomial.polynomial.polymul([1, 0, -1], [1, 0, -1])
    zeros = univariate_zeros(coeffs)
    assert np.allclose(sorted(zeros), [-1.0, 1.0], atol=1e-6)
    assert len(univariate_zeros([1.0, 0.0, 1.0])) == 0  # t^2 + 1


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def ray_rows(draw):
    """(coefficients of p with p(0) > 0, a threshold r in 1e-9..1): a zero of
    order 1-4 near r times real and complex factors, zeros straddling 0 at
    the 1e-10 scale, or a dense random row."""
    poly = np.polynomial.polynomial
    r = draw(_log_uniform(-9.0, 0.0))
    kind = draw(st.sampled_from(("multiple", "straddle", "dense")))
    if kind == "multiple":
        # a (t_e - t)^m q(t), q with real zeros of both signs and complex pairs
        roots = [r * draw(st.floats(0.2, 5.0))] * draw(st.integers(1, 4))
        for _ in range(draw(st.integers(0, 2))):
            roots.append(draw(st.sampled_from((-1.0, 1.0))) * draw(_log_uniform(-10.0, 1.0)))
        c = poly.polyfromroots(roots)
        for _ in range(draw(st.integers(0, 2))):
            re, im = draw(st.floats(-3.0, 3.0)), draw(_log_uniform(-10.0, 1.0))
            c = poly.polymul(c, [re * re + im * im, -2.0 * re, 1.0])
        c = c * draw(_log_uniform(-30.0, 5.0))
    elif kind == "straddle":
        roots = []
        for _ in range(draw(st.integers(1, 3))):
            roots += [draw(st.floats(-1.0, 1.0)) * draw(_log_uniform(-12.0, -8.0))] * draw(st.integers(1, 3))
        c = poly.polyfromroots(roots + draw(st.lists(st.floats(-3.0, 3.0), max_size=2)))
    else:
        signed = st.tuples(st.sampled_from((-1.0, 1.0)), _log_uniform(-6.0, 0.0)).map(lambda p: p[0] * p[1])
        c = np.array(draw(st.lists(signed, min_size=2, max_size=8))) * draw(_log_uniform(-5.0, 5.0))
    c = np.asarray(c, dtype=float)
    assume(c[0] != 0.0)
    return (c if c[0] > 0.0 else -c), r


@settings(max_examples=400, derandomize=True, deadline=None)
@given(ray_rows())
def test_a_certified_ray_has_no_zero_below_its_threshold(row):
    # where the Bernstein bound proves p > 0 on [0, r (1 + 1e-5)], neither
    # solve returns a zero below r, so a threshold check comes out as with
    # the solve
    c, r = row
    if no_zero_below(c, r):
        assert first_positive_zero_rows(c[None])[0][0] >= r
        assert first_positive_zero(c)[0] >= r


def test_the_certificate_holds_on_rays_whose_zero_is_beyond_the_threshold():
    poly = np.polynomial.polynomial
    for r in (1e-9, 1e-6, 1e-3, 1.0):
        for m in range(1, 5):
            for ratio in (1.5, 2.0, 10.0, 1e6):
                c = poly.polymul(poly.polyfromroots([ratio * r] * m), [1.0, 1.0])
                assert no_zero_below(c if c[0] > 0.0 else -c, r), (r, m, ratio)


def test_a_scale_beyond_the_float_range_leaves_the_unscaled_solve():
    # a negative coefficient tiny beside c_0 puts the scale (c_0 / |c_m|)^(1/m)
    # or its powers beyond the float range; the scaled solve is skipped, with
    # no overflow warning (an error under the suite's filter)
    for row in ([1.0, -2.2250738585072014e-311], [1.0, -1e-250, 1.0]):
        assert first_positive_zero(row) == (float("inf"), 0)


def _random_polynomial(rng, dim, degree):
    import itertools

    terms = {}
    for combo in itertools.combinations_with_replacement(range(dim), degree):
        exp = [0] * dim
        for i in combo:
            exp[i] += 1
        terms[tuple(exp)] = rng.uniform(-1.0, 1.0)
    return HomogeneousPolynomial(terms)


def test_batched_rows_equal_one_row_calls():
    rng = np.random.default_rng(11)
    polys = [HomogeneousPolynomial.parse(e) for e in ("x^2*y*z", "x^6 + x^4*y^2", "x*y*z*w")]
    polys += [_random_polynomial(rng, d, k) for d in (2, 3, 4) for k in (2, 3, 4)]
    for poly in polys:
        x = rng.standard_normal(poly.dimension)
        rows = rng.standard_normal((40, poly.dimension))
        rows[0] = 0.0
        rows[0, 0] = 1.0  # an axis direction: many exact zeros
        block = line_coefficients(poly, x, rows)
        zeros = univariate_zeros_rows(block)
        for i, v in enumerate(rows):
            one = restrict_to_line(poly, x, v)
            assert np.array_equal(block[i], one)
            assert np.array_equal(zeros[i][~np.isnan(zeros[i])], univariate_zeros(one))


def test_derivative_rows_round_as_one_point_calls():
    # one-point calls and rows, bit for bit against the evaluators the shared
    # one replaced: over several blocks (5,000 rows), at 0.0 and -0.0
    # entries, and for a lone exponent 2, which numpy would square rather
    # than pass to its pow
    rng = np.random.default_rng(13)
    polys = [HomogeneousPolynomial.parse(e) for e in ("x^2*y*z", "x^6 + x^4*y^2")]
    polys += [HomogeneousPolynomial({(3, 0): 1.0}, dimension=2), _random_polynomial(rng, 4, 4)]
    for poly in polys:
        for m in (1, 7, 5000):
            points = rng.standard_normal((m, poly.dimension)) * rng.uniform(0.01, 100.0, (m, 1))
            points[0, 0] = 0.0
            points[-1, -1] = -0.0
            for order in range(5):
                if order == 0:
                    ref = _old_value_rows(poly, points)
                    one = np.array([poly(x) for x in points])
                else:
                    ref = np.array([_old_derivative(poly, x, order) for x in points])
                    one = np.array([poly._evaluate(x, (order,))[0] for x in points])
                rows = poly.derivative_rows(points, order)
                assert rows.tobytes() == ref.tobytes() and one.tobytes() == ref.tobytes(), (poly, m, order)


def test_row_evaluations():
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal((30, 5))
    t = rng.uniform(-3.0, 3.0, (30, 4))
    pv = np.polynomial.polynomial.polyval
    expected = np.array([pv(t[i], coeffs[i]) for i in range(30)])
    assert np.array_equal(polyval_rows(coeffs, t), expected)
    assert np.array_equal(polyval_rows(coeffs, t[:, 0]), expected[:, 0])
    # (t - 1)^4 just off its root: Horner's rule returns rounding noise,
    # the compensated evaluation the rounded value of the exact one
    c = np.array([[1.0, -4.0, 6.0, -4.0, 1.0]])
    at = np.array([1.0 + 2.0**-12])
    assert polyval_rows(c, at, compensated=True)[0] == 2.0**-48


def test_map_domain_enforced():
    # q = x y / (x + y) is -2 at (-1, 2) and 0 on the axis; (-1, 0.5), with
    # q = 1, lies on the cone q > 0, in a wedge away from the quadrant
    amap = analytic_map(2.0)
    for point in ([-1.0, 2.0], [0.0, 1.0]):
        with pytest.raises(DomainError):
            amap(point)
    assert amap([-1.0, 0.5]) == 1.0
