import numpy as np
import pytest

from centroaffine import (
    HomogeneousPolynomial,
    chart_metric,
    cubic_form,
    curvature_residual,
    fund_equation_residual,
    make_chart,
    polarization,
    volume_parallel_residual,
)
from centroaffine.structure import _split_rows, _volume_rows, curvature_defect

CURVE = HomogeneousPolynomial.parse("x^3 - x*y^2")
MONOMIAL = HomogeneousPolynomial.parse("x^2*y")
TRIPLE = HomogeneousPolynomial.parse("x*y*z")


def _split(frame, coords):
    """Connection coefficients and metric part of the Gauss split at one
    chart point."""
    gamma, gram = _split_rows(frame, frame._jets(np.atleast_2d(coords), (1, 2)))
    return gamma[0], gram[0]


def _volume(frame, coords):
    """Volume density det(position, tangent images) at one chart point."""
    return _volume_rows(frame, frame._jets(np.atleast_2d(coords), (1,)))[0]


def test_gauss_split_metric_component_matches_chart_metric():
    frame = make_chart(CURVE, [1, 0])
    _, gram = _split(frame, [0.0])
    direct = chart_metric(frame, [0.0]).matrix
    assert np.allclose(gram, direct, atol=1e-12)
    _, gram2 = _split(frame, [0.35])
    direct2 = chart_metric(frame, [0.35]).matrix
    assert np.abs(gram2 - direct2).max() <= 1e-7 * max(1, np.abs(direct2).max())


def test_gauss_split_gamma_symmetric_lower_indices():
    frame = make_chart(TRIPLE, [1, 1, 1])
    gamma, _ = _split(frame, [0.2, -0.1])
    assert np.allclose(gamma, gamma.transpose(0, 2, 1), atol=1e-12)


def test_gauss_split_gamma_matches_finite_difference_oracle():
    # independent route: second differences of the embedding, solved against
    # the same moving frame
    frame = make_chart(MONOMIAL, [1, 1])
    c0 = np.array([0.1])
    step = 1e-4
    phi = lambda c: frame.embed(np.atleast_1d(c))
    second = (phi(c0 + step) - 2.0 * phi(c0) + phi(c0 - step)) / step**2
    m = np.column_stack([frame._jacobian_rows(*frame._jets(c0[None], (1,)))[0], frame.embed(c0)])
    sol = np.linalg.solve(m, second)
    gamma, gram = _split(frame, c0)
    assert abs(sol[0] - gamma[0, 0, 0]) < 1e-5
    assert abs(sol[1] - gram[0, 0]) < 1e-5


def test_quadric_has_vanishing_cubic_form():
    sphere = HomogeneousPolynomial.parse("x^2 + y^2 + z^2")
    frame = make_chart(sphere, [1.0, 0.1, -0.2])
    c = np.array([0.1, 0.05])
    sample = cubic_form(frame, c, "nabla_g")
    assert np.abs(sample.tensor).max() <= 1e-7
    # constant-curvature identity still holds on the quadric
    assert curvature_residual(frame, c) <= 1e-4


def test_volume_form_example():
    frame = make_chart(CURVE, [1, 0])
    assert abs(_volume(frame, [0.0]) - 1.0) < 1e-14


def test_volume_form_sign_flips_with_basis_orientation():
    frame = make_chart(TRIPLE, [1, 1, 1])
    from centroaffine.chart import ChartFrame

    swapped = ChartFrame(TRIPLE, frame.origin, frame.basis[::-1], tangent=True)
    c = np.array([0.1, 0.2])
    assert np.sign(_volume(frame, c)) == -np.sign(_volume(swapped, c[::-1]))


def test_volume_parallel_residual(catalog_frames):
    for poly, frame in catalog_frames.values():
        c = 0.1 * np.ones(frame.chart_dim)
        nu = _volume(frame, c)
        assert volume_parallel_residual(frame, c) <= 1e-5 * abs(nu)


def test_cubic_form_methods_agree(catalog_frames):
    for poly, frame in catalog_frames.values():
        for c in frame.sample_coords(6, max_frac=0.5, seed=5):
            fd = cubic_form(frame, c, "nabla_g").tensor
            exact = cubic_form(frame, c, "polarization").tensor
            scale = max(1.0, np.abs(exact).max())
            assert np.abs(fd - exact).max() <= 1e-5 * scale


def test_cubic_form_symmetry():
    frame = make_chart(TRIPLE, [1, 1, 1])
    c = np.array([0.15, -0.05])
    exact = cubic_form(frame, c, "polarization").tensor
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert np.abs(exact - np.transpose(exact, perm)).max() <= 1e-8 * max(1, np.abs(exact).max())
    fd = cubic_form(frame, c, "nabla_g").tensor
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert np.abs(fd - np.transpose(fd, perm)).max() <= 1e-5 * max(1, np.abs(fd).max())


def test_cubic_form_diagonal_value():
    # chart basis is the unit vector along (1, -2); rescale to the raw vector
    frame = make_chart(MONOMIAL, [1, 1])
    sample = cubic_form(frame, [0.0], "polarization")
    scale = np.sqrt(5.0) ** 3
    assert abs(scale * sample.tensor[0, 0, 0] - 4.0) < 1e-12


def test_metric_from_polarization_contraction():
    # the metric equals -2 * (trilinear form)(position, ., .) on tangents
    tri = polarization(MONOMIAL)
    xi = np.array([1.0, 1.0])
    v = np.array([1.0, -2.0])
    val = -2.0 * np.einsum("abc,a,b,c->", tri, xi, v, v)
    assert abs(val - 2.0) < 1e-14
    form_val = chart_metric(make_chart(MONOMIAL, [1, 1]), [0.0]).matrix[0, 0] * 5.0
    assert abs(val - form_val) < 1e-12


def test_cubic_form_rejects_non_cubic_polarization():
    sphere = HomogeneousPolynomial.parse("x^2 + y^2")
    frame = make_chart(sphere, [1.0, 0.0])
    with pytest.raises(ValueError):
        cubic_form(frame, [0.0], "polarization")


def test_fund_equation_residual_small(catalog_frames):
    for poly, frame in catalog_frames.values():
        for c in frame.sample_coords(5, max_frac=0.5, seed=7):
            g = chart_metric(frame, c).matrix
            scale = max(1.0, 3.0 * float(np.abs(g).max()) ** 2)
            assert fund_equation_residual(frame, c) <= 1e-4 * scale


def test_fund_equation_second_order_in_step():
    frame = make_chart(MONOMIAL, [1, 1])
    c = np.array([0.12])
    res = [fund_equation_residual(frame, c, fd_step=s) for s in (4e-2, 2e-2, 1e-2)]
    ratios = [res[i] / res[i + 1] for i in range(2)]
    for r in ratios:
        assert 2.5 < r < 6.0  # fourth/second-order window around 4


def test_fund_equation_rejects_quartic():
    quartic = HomogeneousPolynomial.parse("x^2*y*z")
    frame = make_chart(quartic, [1, 1, 1])
    with pytest.raises(ValueError):
        fund_equation_residual(frame, [0.0, 0.0])


def test_curvature_residual_small(catalog_frames):
    for poly, frame in catalog_frames.values():
        c = 0.08 * np.ones(frame.chart_dim)
        assert curvature_residual(frame, c) <= 1e-4


def test_curvature_negative_control():
    # flat connection with a nonzero metric violates the identity at |g| scale
    g = np.diag([0.7, 1.3])
    n = 2
    defect = curvature_defect(np.zeros((n, n, n)), np.zeros((n, n, n, n)), g)
    assert abs(defect - 1.3) < 1e-14


def test_gauss_split_rejects_ill_conditioned_frame():
    from centroaffine import DegenerateFrameError
    from centroaffine.chart import ChartFrame

    # a slice with nearly dependent directions passes the rank gate but
    # produces an unusable moving frame
    basis = np.array([[1.0, 0.0, -1.0], [1.0, 1e-9, -1.0]])
    frame = ChartFrame(TRIPLE, np.array([1.0, 1.0, 1.0]), basis, tangent=False)
    with pytest.raises(DegenerateFrameError):
        _split(frame, [0.0, 0.0])
