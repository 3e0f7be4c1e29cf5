"""The report's identity and structure residuals, computed row-wise, against
the one-point formulas they replaced, which are kept here as the reference:
every row must equal its reference bit for bit (the report is written at 17
significant digits, so the stacked passes must not move one)."""

import math

import numpy as np
import pytest

from centroaffine import HomogeneousPolynomial, catalog, make_chart
from centroaffine.chart import (
    METHODS,
    chart_metric,
    chart_metric_consistency,
    chart_metric_consistency_rows,
    chart_metric_rows,
    cone_identity_residual,
    cone_identity_residual_rows,
    lorentz_identity_residual_rows,
    lorentz_identity_residuals,
    tangent_basis_at,
)
from centroaffine.cli import _cone_points
from centroaffine.errors import DomainError
from centroaffine.forms import SymmetricForm
from centroaffine.homogeneous import (
    euler_residual,
    euler_residual_rows,
    polarization,
    position_identity_residual,
    position_identity_residual_rows,
)
from centroaffine.structure import (
    _default_step,
    curvature_defect,
    curvature_residual,
    fund_equation_residual,
    structure_residual_rows,
    volume_parallel_residual,
)
from conftest import FIXTURES, linear_copies


def _frames(cubic_only=False, maps=False):
    """(label, func, frame): the fixtures, one random linear copy of each,
    the catalog cubics, and with ``maps`` the analytic maps k = 1.5, 2."""
    rng = np.random.default_rng(8)
    out = []
    for expr, seed, _, _ in FIXTURES:
        poly = HomogeneousPolynomial.parse(expr)
        if cubic_only and poly.degree != 3:
            continue
        out.append((expr, poly, make_chart(poly, seed)))
        (q, y0), = linear_copies(poly, np.array(seed), rng, count=1)
        out.append((f"A:{expr}", q, make_chart(q, y0)))
    out += [(e.identifier, *e.build()) for e in catalog.catalog_cubics()]
    if maps:
        out += [(f"analytic{k}", *catalog.analytic_example(k)) for k in (1.5, 2.0)]
    return out


def _same(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


# -- the one-point formulas, as they were before the row code ------------------


def _value(func, x):
    if isinstance(func, HomogeneousPolynomial):
        return math.fsum((func._coeffs * np.prod(x**func._exps, axis=1)).tolist())
    return func(x)


def _old_cone_points(func, frame, rng_seed, count):
    """The rejection loop of the identity block: points, values, rejections."""
    rng = np.random.default_rng(rng_seed)
    points, values, rejected = [], [], 0
    while len(points) < count:
        x = frame.origin + 0.25 * rng.standard_normal(frame.dimension) * np.linalg.norm(frame.origin)
        if not func.contains(x):
            rejected += 1
            continue
        try:
            hx = func(x)
        except DomainError:
            rejected += 1
            continue
        if hx <= 0.0:
            rejected += 1
            continue
        points.append(x)
        values.append(hx)
    return np.array(points), np.array(values), rejected


def _old_identities(func, x):
    k = func.degree
    grad, hess = func.gradient(x), func.hessian(x)
    euler = math.fsum((x * grad).tolist()) - k * _value(func, x)
    position = float(np.abs(hess @ x - (k - 1.0) * grad).max())
    form = SymmetricForm(-hess / k)
    radial = abs(form.value(x, x) + (k - 1.0) * _value(func, x))
    gradient = float(np.abs(form.matrix @ x + ((k - 1.0) / k) * grad).max())
    return euler, position, radial, gradient


def _old_jacobian(frame, c):
    x = frame.origin + c @ frame.basis
    hx, k = _value(frame.func, x), frame.degree
    grad = frame.func.gradient(x)
    a = hx ** (-1.0 / k)
    b = -(1.0 / k) * hx ** (-1.0 / k - 1.0)
    return np.column_stack([a * v + b * (grad @ v) * x for v in frame.basis])


def _old_embed(frame, c):
    x = frame.origin + c @ frame.basis
    return x / math.exp(math.log(_value(frame.func, x)) / frame.func.degree)


def _old_chart_metric(frame, c, method):
    func, k = frame.func, frame.degree
    x = frame.origin + c @ frame.basis
    hx = _value(func, x)
    if method == "pullback":
        jac = _old_jacobian(frame, c)
        return SymmetricForm(-(jac.T @ func.hessian(_old_embed(frame, c)) @ jac) / k).matrix
    dh = frame.basis @ func.gradient(x)
    hb = frame.basis @ func.hessian(x) @ frame.basis.T
    if method == "psi_formula":
        return SymmetricForm(-hb / (k * hx) + ((k - 1.0) / (k * hx) ** 2) * np.outer(dh, dh)).matrix
    u = hx ** (1.0 / k)
    hess_u = (1.0 / k) * hx ** (1.0 / k - 1.0) * hb + (1.0 / k) * (
        1.0 / k - 1.0
    ) * hx ** (1.0 / k - 2.0) * np.outer(dh, dh)
    return SymmetricForm(-hess_u / u).matrix


def _old_consistency(frame, c):
    grams = [_old_chart_metric(frame, c, m) for m in METHODS]
    scale = max(1e-300, max(float(np.abs(g).max()) for g in grams))
    worst = 0.0
    for i in range(len(grams)):
        for j in range(i + 1, len(grams)):
            worst = max(worst, float(np.abs(grams[i] - grams[j]).max()) / scale)
    return worst


def _old_cone(frame, x):
    func, k = frame.func, frame.degree
    hx = _value(func, x)
    fd_step = 1e-5 * (1.0 + float(np.linalg.norm(x)))
    s0 = 2.0 * math.sqrt(k - 1.0) / k
    vectors = [x] + list(tangent_basis_at(func, x))
    ds = np.array(
        [
            (s0 * math.sqrt(_value(func, x + fd_step * w)) - s0 * math.sqrt(_value(func, x - fd_step * w)))
            / (2.0 * fd_step)
            for w in vectors
        ]
    )
    hess_q = func.hessian(x / math.exp(math.log(hx) / func.degree))
    grad = func.gradient(x)
    a = hx ** (-1.0 / k)
    b = -(1.0 / k) * hx ** (-1.0 / k - 1.0)
    images = [a * w + b * (grad @ w) * x for w in vectors]
    m = len(vectors)
    lhs, rhs = np.empty((m, m)), np.empty((m, m))
    hess_x = func.hessian(x)
    for i in range(m):
        for j in range(i, m):
            lhs[i, j] = lhs[j, i] = -(vectors[i] @ hess_x @ vectors[j]) / k
            cross = -(images[i] @ hess_q @ images[j]) / k
            rhs[i, j] = rhs[j, i] = -ds[i] * ds[j] + hx * cross
    return float(np.abs(lhs - rhs).max())


def _old_second(frame, c):
    x = frame.origin + c @ frame.basis
    func, k, n = frame.func, frame.degree, frame.chart_dim
    hx = _value(func, x)
    grad, hess = func.gradient(x), func.hessian(x)
    c1 = -(1.0 / k) * hx ** (-1.0 / k - 1.0)
    c2 = (1.0 / k) * (1.0 / k + 1.0) * hx ** (-1.0 / k - 2.0)
    out = np.empty((n, n, frame.dimension))
    dh = frame.basis @ grad
    hb = frame.basis @ hess @ frame.basis.T
    for i in range(n):
        for j in range(i, n):
            u, v = frame.basis[i], frame.basis[j]
            out[i, j] = out[j, i] = c1 * (dh[j] * u + dh[i] * v + hb[i, j] * x) + c2 * dh[i] * dh[j] * x
    return out


def _old_gauss_split(frame, c):
    n = frame.chart_dim
    m = np.column_stack([_old_jacobian(frame, c), _old_embed(frame, c)])
    assert np.linalg.cond(m) <= 1e8
    sol = np.linalg.solve(m, _old_second(frame, c).reshape(n * n, frame.dimension).T)
    gamma = sol[:n].reshape(n, n, n)
    gamma = 0.5 * (gamma + gamma.transpose(0, 2, 1))
    gram = SymmetricForm(0.5 * (sol[n].reshape(n, n) + sol[n].reshape(n, n).T)).matrix
    direct = _old_chart_metric(frame, c, "psi_formula")
    assert float(np.abs(gram - direct).max()) <= 1e-6 * max(1.0, float(np.abs(direct).max()))
    return gamma, gram


def _old_volume(frame, c):
    return float(np.linalg.det(np.column_stack([_old_embed(frame, c), _old_jacobian(frame, c)])))


def _old_cubic(frame, c):
    jac = _old_jacobian(frame, c)
    return -2.0 * np.einsum("abc,ai,bj,ck->ijk", polarization(frame.func), jac, jac, jac)


def _old_structure(frame, c):
    """(fund_equation, curvature, volume_parallel) by the per-residual loops,
    each solving its own step and centre split."""
    n = frame.chart_dim
    out = []
    for kind in ("fund", "curvature", "volume"):
        step = _default_step(frame, c, None)
        gamma, g = _old_gauss_split(frame, c)
        shifts = [step * e for e in np.eye(n)]
        if kind == "fund":
            c0 = _old_cubic(frame, c)
            dc = np.array([(_old_cubic(frame, c + e) - _old_cubic(frame, c - e)) / (2.0 * step) for e in shifts])
            nabla_c = (
                dc
                - np.einsum("mij,mkl->ijkl", gamma, c0)
                - np.einsum("mik,jml->ijkl", gamma, c0)
                - np.einsum("mil,jkm->ijkl", gamma, c0)
            )
            target = (
                np.einsum("ij,kl->ijkl", g, g) + np.einsum("ik,jl->ijkl", g, g) + np.einsum("il,jk->ijkl", g, g)
            )
            out.append(float(np.abs(nabla_c - target).max()))
        elif kind == "curvature":
            dgamma = np.array(
                [(_old_gauss_split(frame, c + e)[0] - _old_gauss_split(frame, c - e)[0]) / (2.0 * step) for e in shifts]
            )
            out.append(curvature_defect(gamma, dgamma, g))
        else:
            nu, worst = _old_volume(frame, c), 0.0
            for i, e in enumerate(shifts):
                dnu = (_old_volume(frame, c + e) - _old_volume(frame, c - e)) / (2.0 * step)
                worst = max(worst, abs(dnu - float(np.trace(gamma[:, :, i])) * nu))
            out.append(worst)
    return out


# -- tests ---------------------------------------------------------------------------


@pytest.mark.parametrize("rng_seed", [0, 4])  # seeds at which the maps' loops reject draws
def test_cone_points_are_those_of_the_rejection_loop(rng_seed):
    for label, func, frame in _frames(maps=True):
        points, values = _cone_points(func, frame, np.random.default_rng(rng_seed), 200)
        ref_points, ref_values, rejected = _old_cone_points(func, frame, rng_seed, 200)
        assert _same(points, ref_points) and _same(values, ref_values), label
        if label.startswith("analytic"):
            assert rejected > 0, label  # the maps reject draws by domain, the path under test


def test_identity_rows_equal_the_one_point_formulas():
    for label, func, frame in _frames(maps=True):
        x, hx = _cone_points(func, frame, np.random.default_rng(3), 200)
        k = func.degree
        grads, hess = func.derivative_rows(x, 1), func.derivative_rows(x, 2)
        rows = [
            euler_residual_rows(k, x, hx, grads),
            position_identity_residual_rows(k, x, grads, hess),
            *lorentz_identity_residual_rows(k, x, hx, grads, hess),
        ]
        ref = np.array([_old_identities(func, p) for p in x]).T
        for got, want in zip(rows, ref):
            assert _same(got, want), label
        one = [
            [euler_residual(func, p), position_identity_residual(func, p), *lorentz_identity_residuals(func, p).values()]
            for p in x[:20]
        ]
        assert _same(one, ref[:, :20].T), label


def test_metric_route_rows_equal_the_one_point_formulas():
    for label, _, frame in _frames(maps=True):
        coords = frame.sample_coords(50, max_frac=0.85, seed=4)
        for method in METHODS:
            ref = np.array([_old_chart_metric(frame, c, method) for c in coords])
            assert _same(chart_metric_rows(frame, coords, method), ref), (label, method)
            assert _same([chart_metric(frame, c, method).matrix for c in coords[:10]], ref[:10]), (label, method)
        ref = [_old_consistency(frame, c) for c in coords]
        assert _same(chart_metric_consistency_rows(frame, coords), ref), label
        assert _same(frame.embed(coords), [_old_embed(frame, c) for c in coords]), label  # classify's points
        assert _same([chart_metric_consistency(frame, c) for c in coords[:10]], ref[:10]), label


def test_cone_residual_rows_equal_the_one_point_formula():
    for label, _, frame in _frames(maps=True):
        points = frame.point(frame.sample_coords(50, max_frac=0.85, seed=5))
        ref = [_old_cone(frame, x) for x in points]
        assert _same(cone_identity_residual_rows(frame, points), ref), label
        assert _same([cone_identity_residual(frame, x) for x in points[:10]], ref[:10]), label


def test_structure_rows_share_one_step_and_equal_the_per_residual_loops():
    for label, _, frame in _frames(cubic_only=True):
        coords = frame.sample_coords(5, max_frac=0.5, seed=6)
        rows = structure_residual_rows(frame, coords)
        ref = np.array([_old_structure(frame, c) for c in coords]).T
        for kind, want in zip(("fund_equation", "curvature", "volume_parallel"), ref):
            assert _same(rows[kind], want), (label, kind)
        one = [
            [fund_equation_residual(frame, c), curvature_residual(frame, c), volume_parallel_residual(frame, c)]
            for c in coords[:2]
        ]
        assert _same(one, ref[:, :2].T), label
