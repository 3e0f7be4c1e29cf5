import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from centroaffine import (
    DomainError,
    HomogeneousPolynomial,
    MixedDegreeError,
    ParseError,
    SmoothHomogeneousMap,
    euler_residual,
    polarization,
    position_identity_residual,
    restrict_to_line,
)
from centroaffine.catalog import analytic_map
from centroaffine.homogeneous import (
    _fma,
    line_coefficients,
    polyval_rows,
    univariate_zeros,
    univariate_zeros_rows,
)

from conftest import fd_gradient, fd_hessian, fd_third


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
    q = HomogeneousPolynomial.from_json(p.to_json())
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


def test_euler_residual_examples():
    p = HomogeneousPolynomial.parse("x^3 - x*y^2")
    assert abs(euler_residual(p, [2, 1])) <= 1e-12 * (1 + abs(p([2, 1])))
    amap = analytic_map(3.0)
    assert abs(euler_residual(amap, [1, 2])) <= 1e-10


def test_euler_residual_many_points(catalog_frames):
    rng = np.random.default_rng(11)
    for poly, _ in catalog_frames.values():
        for _ in range(1000):
            x = rng.uniform(-2, 2, poly.dimension)
            assert abs(euler_residual(poly, x)) <= 1e-12 * (1.0 + abs(poly(x)))


def test_euler_residual_negative_control():
    # an inconsistent degree field models a corrupted coefficient table
    p = HomogeneousPolynomial.parse("x^3 - x*y^2")
    corrupted = SmoothHomogeneousMap(
        dimension=2, degree=4.0, value=p.__call__, gradient=p.gradient, hessian=p.hessian
    )
    assert abs(euler_residual(corrupted, [1.2, 0.3])) > 1e-3


def test_position_identity_examples():
    q = HomogeneousPolynomial.parse("x^2*y")
    x = np.array([1.0, 1.0])
    assert np.allclose(q.hessian(x) @ x, [4.0, 2.0], atol=0)
    assert position_identity_residual(q, x) == 0.0
    quad = HomogeneousPolynomial.parse("x^2 + 3*x*y - y^2")
    assert position_identity_residual(quad, np.array([0.7, -2.1])) <= 1e-14
    amap = analytic_map(2.0)
    assert position_identity_residual(amap, np.array([1.0, 1.0])) <= 1e-9


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.integers(min_value=0, max_value=3),
)
def test_scaling_covariance(lam, order):
    p = HomogeneousPolynomial.parse("x^3 - x*y^2 + 0.5*y^3")
    x = np.array([1.1, 0.4])
    k = p.degree
    if order == 0:
        left, right = p(lam * x), lam**k * p(x)
        assert abs(left - right) <= 1e-10 * (1 + abs(right))
    else:
        left = p._derivative(lam * x, order)
        right = lam ** (k - order) * p._derivative(x, order)
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
    assert np.allclose(r.coefficients, [1.0, 0.0, -1.0, 0.0], atol=0)
    q = HomogeneousPolynomial.parse("x^2*y")
    r2 = restrict_to_line(q, [1, 1], [1, -2])
    # (1 + t)^2 (1 - 2 t) = 1 - 3 t^2 - 2 t^3
    assert np.allclose(r2.coefficients, [1.0, 0.0, -3.0, -2.0], atol=1e-15)


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
        assert abs(r.value(t) - direct) <= 1e-12 * (1.0 + abs(direct))
    amap = analytic_map(2.0)
    r = restrict_to_line(amap, [1.0, 1.0], [0.2, -0.1])
    assert r.coefficients is None
    for t in (0.0, 0.4):
        assert r.value(t) == amap(np.array([1.0, 1.0]) + t * np.array([0.2, -0.1]))


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
            one = restrict_to_line(poly, x, v).coefficients
            assert np.array_equal(block[i], one)
            assert np.array_equal(zeros[i][~np.isnan(zeros[i])], univariate_zeros(one))


def test_derivative_rows_round_as_one_point_calls():
    # bit for bit, also over several blocks (5,000 rows) and for a lone
    # exponent 2, which numpy would square rather than pass to its pow
    rng = np.random.default_rng(13)
    polys = [HomogeneousPolynomial.parse(e) for e in ("x^2*y*z", "x^6 + x^4*y^2")]
    polys += [HomogeneousPolynomial({(3, 0): 1.0}, dimension=2), _random_polynomial(rng, 4, 4)]
    for poly in polys:
        for m in (1, 7, 5000):
            points = rng.standard_normal((m, poly.dimension)) * rng.uniform(0.01, 100.0, (m, 1))
            points[0, 0] = 0.0
            for order in (1, 2, 3):
                rows = poly.derivative_rows(points, order)
                one = np.array([poly.derivative_tensor(x, order) for x in points])
                assert rows.tobytes() == one.tobytes(), (poly, m, order)
        # values: each row's terms summed by fsum, as the one-point formula kept here sums them
        ref = [math.fsum((poly._coeffs * np.prod(x**poly._exps, axis=1)).tolist()) for x in points]
        assert poly.derivative_rows(points, 0).tobytes() == np.array(ref).tobytes(), poly
        assert np.array([poly(x) for x in points]).tobytes() == np.array(ref).tobytes(), poly


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


def test_fma_rounds_once():
    from fractions import Fraction

    rng = np.random.default_rng(4)
    a = rng.standard_normal(300) * np.exp2(rng.integers(-30, 30, 300))
    b = rng.standard_normal(300)
    c = -a * b * (1.0 + rng.standard_normal(300) * np.exp2(rng.integers(-52, 0, 300)))
    got = _fma(a, b, c)
    for i in range(300):
        exact = Fraction(float(a[i])) * Fraction(float(b[i])) + Fraction(float(c[i]))
        assert got[i] == float(exact)


def test_map_domain_enforced():
    amap = analytic_map(2.0)
    with pytest.raises(DomainError):
        amap([-1.0, 0.5])
