"""The report's identity and structure residuals, the classification, the
concavity grid, the segment test and the ray solves, computed row-wise,
against the one-point (or one-block-per-base) code they replaced, which is
kept here as the reference: every row must equal its reference bit for bit
(the report is written at 17 significant digits, so the stacked passes must
not move one).  Likewise the geodesic loop's one-row calls (connection,
Dormand-Prince step, one-row bisection) against the code they replaced."""

import functools
import itertools
import math

import numpy as np
import pytest

from centroaffine import HomogeneousPolynomial, catalog, make_chart
from centroaffine.chart import (
    METHODS,
    ChartFrame,
    chart_metric,
    chart_metric_consistency,
    chart_metric_consistency_rows,
    chart_metric_rows,
    classify,
    cone_identity_residual,
    cone_identity_residual_rows,
    contract_indices,
    jet_connection,
    levi_civita_gamma,
    lorentz_identity_residual_rows,
    lorentz_identity_residuals,
    tangent_basis_at,
)
from centroaffine.cli import _cone_points
from centroaffine.completeness import (
    _DP_A,
    _DP_E,
    WITNESS_MAX_LEN,
    _BoundaryLayer,
    ConcavityResult,
    SegmentLine,
    _dp_step,
    concavity_results,
    concavity_test,
    cubic_segment_test,
    default_eps_grid,
    geodesic_shoot,
)
from centroaffine.errors import DomainError
from centroaffine.forms import SymmetricForm
from centroaffine.homogeneous import (
    _bisect_rows,
    _convolve_rows,
    critical_points,
    euler_residual,
    euler_residual_rows,
    line_coefficients,
    polarization,
    polyval_rows,
    position_identity_residual,
    position_identity_residual_rows,
    univariate_zeros_rows,
)
from centroaffine.sampling import unit_directions
from centroaffine.structure import (
    _default_step,
    _default_steps,
    curvature_defect,
    curvature_residual,
    fund_equation_residual,
    gauss_split_rows,
    structure_residual_rows,
    volume_form_rows,
    volume_parallel_residual,
)
from conftest import FIXTURES, _old_derivative, _old_value_rows, linear_copies


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


def _old_default_step(frame, c):
    """1e-4 times the distance to the boundary along the 2n chart axes, by a
    one-origin ray solve."""
    axes = np.vstack([np.eye(frame.chart_dim), -np.eye(frame.chart_dim)])
    dist = float(frame.boundary_distances(c, axes).min())
    if not math.isfinite(dist):
        dist = 1.0 + float(np.abs(c).max())
    return 1e-4 * dist


def _old_structure(frame, c):
    """(fund_equation, curvature, volume_parallel) by the per-residual loops,
    each solving its own step and centre split."""
    n = frame.chart_dim
    out = []
    for kind in ("fund", "curvature", "volume"):
        step = _old_default_step(frame, c)
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


def _old_classify(frame, sample_size, seed, tol=1e-9):
    """The per-point classification loop: counts and witnesses."""
    func = frame.func
    coords = frame.sample_coords(sample_size, max_frac=0.8, seed=seed)
    counts = {"hyperbolic": 0, "elliptic": 0, "indefinite": 0}
    witnesses, first_of = [], {}
    for c, q in zip(coords, frame.embed(coords)):
        hq = func(q)
        if abs(hq - 1.0) > 1e-10 * max(1.0, abs(hq)):
            raise DomainError(f"point is not on the unit level set (value {hq})")
        basis = tangent_basis_at(func, q)
        form = SymmetricForm(-(basis @ func.hessian(q) @ basis.T) / func.degree)
        if form.is_definite(1, tol):
            kind = "hyperbolic"
        elif form.is_definite(-1, tol):
            kind = "elliptic"
        else:
            kind = "indefinite"
            witnesses.append((c.tolist(), form.signature(tol)))
        counts[kind] += 1
        first_of.setdefault(kind, (c.tolist(), form.signature(tol)))
    if counts["hyperbolic"] == len(coords):
        aggregate = "hyperbolic"
    elif counts["elliptic"] == len(coords):
        aggregate = "elliptic"
    else:
        aggregate = "indefinite"
        witnesses.extend(v for k, v in first_of.items() if k != "indefinite")
    return aggregate, counts, witnesses


def _old_concavity(frame, eps, n_samples, seed, tol=1e-9):
    """The per-point concavity loop, which stops at its first failing sample."""
    k, func = frame.degree, frame.func
    m = 1.0 / (k - eps)
    coords = frame.sample_coords(n_samples, max_frac=1.0 - 1e-3, seed=seed)
    for c in coords:
        x = frame.point(c)
        hx = func(x)
        if hx <= 0.0:
            continue
        grad = frame.basis @ func.gradient(x)
        hess = frame.basis @ func.hessian(x) @ frame.basis.T
        hess_f = m * hx ** (m - 1.0) * hess + m * (m - 1.0) * hx ** (m - 2.0) * np.outer(grad, grad)
        lam = float(np.linalg.eigvalsh(hess_f).max())
        scale = max(1.0, float(np.abs(hess_f).max()))
        if lam > tol * scale:
            return ConcavityResult(eps, False, len(coords), c.tolist(), lam)
    return ConcavityResult(eps, True, len(coords), None, None)


def _old_line_coefficients(poly, x, directions):
    """The one-origin line restriction, the origin's powers by numpy's scalar pow."""
    rows = np.atleast_2d(np.asarray(directions, dtype=float))
    top = poly._exps.max(axis=0)
    powers = [
        [np.ones(len(rows)), col] + [np.array([v**j for v in col.tolist()]) for j in range(2, e + 1)]
        for col, e in zip(rows.T, top)
    ]
    total = np.zeros((len(rows), poly.degree + 1))
    for exp, coeff in poly._terms.items():
        factor = np.full((len(rows), 1), coeff)
        for i, e in enumerate(exp):
            if e:
                binom = [math.comb(e, j) * x[i] ** (e - j) * powers[i][j] for j in range(e + 1)]
                factor = _convolve_rows(factor, np.column_stack(binom))
        total[:, : factor.shape[1]] += factor
    return total


_CHEBYSHEV = np.cos(np.pi * (np.arange(17) + 0.5) / 17.0)


def _old_segment_block(frame, base, directions, tol):
    """The segment test on the lines from one base point: a SegmentLine per
    direction, None where the positivity interval is unbounded."""
    h0 = _old_line_coefficients(frame.func, frame.point(base), frame.vectors(directions))
    zeros = univariate_zeros_rows(h0)
    a = np.where(zeros < 0.0, zeros, -np.inf).max(axis=1)
    b = np.where(zeros > 0.0, zeros, np.inf).min(axis=1)
    c0, c1, c2, c3 = h0.T
    d1 = np.column_stack([c1, 2.0 * c2, 3.0 * c3])
    f0 = np.column_stack([4 * c0 * c2 - c1 * c1, 12 * c0 * c3, 6 * c1 * c3, 4 * c2 * c3, 3 * c3 * c3])
    f0d = f0[:, 1:] * np.arange(1, 5)
    mono_defect = np.abs(f0d - 2.0 * h0 * (6.0 * c3[:, None])).max(axis=1)
    crit = critical_points(f0d)
    with np.errstate(invalid="ignore"):
        crit = np.where((a[:, None] < crit) & (crit < b[:, None]), crit, np.nan)
        grid = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _CHEBYSHEV
        values = polyval_rows(f0, np.column_stack([a, b, crit, grid]))
        max_f0 = np.where(np.isnan(values), -np.inf, values).max(axis=1)
        defect = np.abs(values[:, :2] + polyval_rows(d1, np.column_stack([a, b])) ** 2).max(axis=1)
    pass_tol = tol if tol is not None else 1e-9 * np.maximum(1.0, np.abs(h0).max(axis=1)) ** 4
    columns = (max_f0, values[:, 0], values[:, 1], defect, mono_defect, max_f0 <= pass_tol)
    return [
        SegmentLine(base, d, (lo, hi), *rest) if math.isfinite(lo) and math.isfinite(hi) else None
        for d, lo, hi, *rest in zip(directions, a.tolist(), b.tolist(), *(c.tolist() for c in columns))
    ]


def _old_segment_test(frame, n_lines, seed, tol=None):
    """The segment test as one block per base point: (lines, failures)."""
    n = frame.chart_dim
    n_bases = max(1, n_lines // 250)
    bases = [np.zeros(n)]
    if n_bases > 1:
        bases.extend(frame.sample_coords(n_bases - 1, max_frac=0.6, seed=seed))
    directions = unit_directions(n, math.ceil(n_lines / len(bases)), seed)
    blocks = [
        _old_segment_block(frame, base, directions[: len(range(j, n_lines, len(bases)))], tol)
        for j, base in enumerate(bases)
    ]
    lines, failures = [], []
    for i in range(n_lines):
        row, j = divmod(i, len(bases))
        line = blocks[j][row]
        if line is None:
            failures.append({"base_coords": bases[j].tolist(), "direction": directions[row].tolist()})
        else:
            lines.append(line)
    return lines, failures


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


def _named_frames():
    """The elliptic quadric, the non-closed cubic piece and x^2*y*z."""
    quadric, quartic = HomogeneousPolynomial.parse("x^2+y^2"), HomogeneousPolynomial.parse("x^2*y*z")
    return [
        ("x^2+y^2", quadric, make_chart(quadric, [1.0, 0.0])),
        ("nonclosed-piece", *catalog.nonclosed_example().build()),
        ("x^2*y*z", quartic, make_chart(quartic, [1.0, 1.0, 1.0])),
    ]


def test_classify_equals_the_per_point_loop():
    # mixed pieces: elliptic samples before hyperbolic ones, and indefinite samples
    mixed = [("x^3+y^3", (1.0, 0.0)), ("x^3+y^3+z^3", (1.0, 0.0, 0.0))]
    mixed = [(e, None, make_chart(HomogeneousPolynomial.parse(e), s)) for e, s in mixed]
    kinds = set()
    for label, _, frame in _frames(maps=True) + _named_frames() + mixed:
        for seed in (0, 3):
            got = classify(frame, 100, seed=seed)
            want = _old_classify(frame, 100, seed)
            assert (got.aggregate, got.counts) == want[:2], (label, seed)
            assert len(got.witnesses) == len(want[2]), (label, seed)
            for (c, sig), (c_ref, sig_ref) in zip(got.witnesses, want[2]):
                assert _same(c, c_ref) and sig == sig_ref and type(sig) is type(sig_ref), (label, seed)
            kinds.add(got.aggregate)
    assert kinds == {"hyperbolic", "elliptic", "indefinite"}


def test_classify_raises_at_the_first_point_off_the_level_set(monkeypatch):
    poly = HomogeneousPolynomial.parse("x^3 - x*y^2")
    frame = make_chart(poly, [1.0, 0.0])
    coords = frame.sample_coords(20, max_frac=0.8, seed=0)
    scale = np.ones(len(coords))
    scale[[3, 7]] = [1.001, 1.1]  # rows 3 and 7 leave the level set

    def embed(c):
        return ChartFrame.embed(frame, c) * scale[:, None]

    monkeypatch.setattr(frame, "embed", embed)
    expected = f"point is not on the unit level set (value {poly(embed(coords)[3])})"
    for run in (lambda: classify(frame, 20), lambda: _old_classify(frame, 20, 0)):
        with pytest.raises(DomainError) as info:
            run()
        assert str(info.value) == expected


def test_concavity_grid_equals_the_per_point_loop():
    maps = [f for f in _frames(maps=True) if f[0].startswith("analytic")]
    cases = [(f, 100, None) for f in _frames()] + [(f, 400, None) for f in maps]
    cases.append((_named_frames()[2], 400, (3.9,)))
    verdicts = set()
    for (label, _, frame), n_samples, grid in cases:
        grid = grid or default_eps_grid(frame.degree)
        want = [_old_concavity(frame, eps, n_samples, 2) for eps in grid]
        assert list(concavity_results(frame, grid, n_samples, seed=2)) == want, label
        assert [concavity_test(frame, eps, n_samples, seed=2) for eps in grid] == want, label
        verdicts.update(r.passed for r in want)
    assert verdicts == {True, False}


def test_concavity_grid_evaluates_the_jets_once(monkeypatch):
    poly = HomogeneousPolynomial.parse("x^2*y*z")
    frame = make_chart(poly, [1.0, 1.0, 1.0])
    orders = []
    evaluate = poly.derivative_rows
    monkeypatch.setattr(poly, "derivative_rows", lambda x, order: orders.append(order) or evaluate(x, order))
    results = list(concavity_results(frame, (3.5, 3.7, 3.9), 100))
    assert [r.passed for r in results] == [False] * 3
    assert orders.count(1) == orders.count(2) == 1


def test_segment_block_equals_the_per_base_blocks():
    frames = _frames(cubic_only=True) + [_named_frames()[1]]
    for (label, _, frame), n_lines in zip(frames, itertools.cycle((2000, 777, 60))):
        result = cubic_segment_test(frame, n_lines=n_lines, seed=5)
        lines, failures = _old_segment_test(frame, n_lines, 5)
        assert result.closedness_failures == failures, label
        assert len(result.lines) == result.line_count == len(lines), label
        for got, want in zip(result.lines, lines):
            for name in SegmentLine.__dataclass_fields__:
                assert _same(getattr(got, name), getattr(want, name)), (label, name)
        assert result.max_f0 == max((l.max_f0 for l in lines), default=-math.inf), label
        assert result.passed == (bool(lines) and all(l.passed for l in lines) and not failures), label
    assert failures  # the non-closed piece, last


def test_multi_origin_line_coefficients_equal_the_one_origin_calls():
    rng = np.random.default_rng(11)
    for label, func, frame in _frames():
        origins = frame.point(frame.sample_coords(40, max_frac=0.9, seed=1))
        origins[::7] = -origins[::7]
        origins[1, 0] = -0.0
        dirs = rng.standard_normal((40, func.dimension)) * rng.choice([1e-3, 1.0, 30.0], (40, 1))
        block = line_coefficients(func, origins, dirs)
        for x, v, row in zip(origins, dirs, block):
            assert _same(row, _old_line_coefficients(func, x, v)[0]), label
            assert _same(row, line_coefficients(func, x, v[None])[0]), label
        assert _same(line_coefficients(func, origins[0], dirs), _old_line_coefficients(func, origins[0], dirs)), label


def test_batched_structure_steps_equal_the_one_row_steps():
    for label, _, frame in _frames(maps=True):
        coords = frame.sample_coords(5, max_frac=0.5, seed=6)
        steps = _default_steps(frame, coords, None)
        assert _same(steps, [_old_default_step(frame, c) for c in coords]), label
        assert _same(steps, [_default_step(frame, c, None) for c in coords]), label
        assert _same(_default_steps(frame, coords, 1e-3), [1e-3] * len(coords)), label


def test_split_and_volume_rows_equal_the_one_point_formulas():
    for label, _, frame in _frames(maps=True):
        coords = frame.sample_coords(6, max_frac=0.5, seed=7)
        gamma, gram = gauss_split_rows(frame, coords)
        ref = [_old_gauss_split(frame, c) for c in coords]
        assert _same(gamma, [g for g, _ in ref]) and _same(gram, [m for _, m in ref]), label
        assert _same(volume_form_rows(frame, coords), [_old_volume(frame, c) for c in coords]), label


# -- the geodesic loop's one-row calls ------------------------------------------------


def _old_contract(t, rows):
    for _ in range(np.ndim(t)):
        t = np.tensordot(t, rows, axes=([0], [1]))
    return t


def _old_jet(func, x):
    """Value, gradient, Hessian and third tensor, each evaluated on its own."""
    if isinstance(func, HomogeneousPolynomial):
        return (float(_old_value_rows(func, x)[0]),) + tuple(_old_derivative(func, x, m) for m in (1, 2, 3))
    return func(x), func.gradient(x), func.hessian(x), func.third_tensor(x)


def _old_gamma(frame, c):
    """levi_civita_gamma through tensordot and the unshared jet formulas."""
    x = frame.point(c)
    func, k, bas = frame.func, frame.degree, frame.basis
    hx, grad, hess, third = _old_jet(func, x)
    return _old_jet_gamma(k, hx, bas @ grad, bas @ hess @ bas.T, _old_contract(third, bas))


def _old_jet_gamma(k, hx, d, b, t):
    """The connection and metric of a chart jet through the broadcast array
    formulas and np.linalg.solve."""
    g = -b / (k * hx) + ((k - 1.0) / (k * hx) ** 2) * np.outer(d, d)
    dd = d[:, None, None] * d[None, :, None] * d[None, None, :]
    sym_bd = b[:, :, None] * d[None, None, :] + b[:, None, :] * d[None, :, None]
    dg = (
        -t / (k * hx)
        + d[:, None, None] * b[None, :, :] / (k * hx * hx)
        + ((k - 1.0) / (k * k)) * (sym_bd / hx**2 - 2.0 * dd / hx**3)
    )
    n = len(d)
    bracket = np.transpose(dg, (1, 0, 2)) + np.transpose(dg, (1, 2, 0)) - dg
    return 0.5 * np.linalg.solve(g, bracket.reshape(n, n * n)).reshape(n, n, n), g


def _old_dp_step(connection, c, v, a, step):
    vs, accs = [v], [a]
    for w in _DP_A:
        ci = c + step * (w @ np.array(vs))
        vi = v + step * (w @ np.array(accs))
        gamma, g = connection(ci)
        vs.append(vi)
        accs.append(-((gamma @ vi) @ vi))
    err_c = step * (_DP_E @ np.array(vs))
    err_v = step * (_DP_E @ np.array(accs))
    return ci, vi, accs[-1], g, err_c, err_v


def _old_bisect_rows(coeffs, t0, w):
    lo, hi = t0 - w, t0 + w
    vlo, vhi = polyval_rows(coeffs, lo), polyval_rows(coeffs, hi)
    ok = (vlo != 0.0) & (vhi != 0.0) & ((vlo < 0.0) != (vhi < 0.0))
    active = ok.copy()
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        active &= (mid != lo) & (mid != hi)
        if not active.any():
            break
        left = (polyval_rows(coeffs, mid) < 0.0) == (vlo < 0.0)
        lo = np.where(active & left, mid, lo)
        hi = np.where(active & ~left, mid, hi)
    return 0.5 * (lo + hi), ok


def test_contract_indices_is_the_tensordot_product():
    rng = np.random.default_rng(12)
    for label, func, frame in _frames(maps=True):
        x = frame.point(frame.sample_coords(3, max_frac=0.9, seed=2))
        rotation = np.linalg.qr(rng.standard_normal((frame.chart_dim,) * 2))[0]
        jets = (func.gradient, func.hessian, func.third_tensor)
        if isinstance(func, HomogeneousPolynomial):  # the boundary layer's tensors, up to the degree
            jets += tuple(functools.partial(func.derivative_tensor, order=m) for m in range(4, func.degree + 1))
        for order, jet in enumerate(jets, start=1):
            for t in map(jet, x):
                basis_t = contract_indices(t, frame.basis)
                assert _same(basis_t, _old_contract(t, frame.basis)), (label, order)
                assert _same(contract_indices(basis_t, rotation), _old_contract(basis_t, rotation)), (label, order)


def test_connection_equals_the_tensordot_formulas():
    for label, _, frame in _frames(maps=True):
        for max_frac in (0.5, 0.999):
            for c in frame.sample_coords(8, max_frac=max_frac, seed=3):
                gamma, g = levi_civita_gamma(frame, c)
                ref_gamma, ref_g = _old_gamma(frame, c)
                assert _same(gamma, ref_gamma) and _same(g, ref_g), (label, c)


def _entered_layers(expr):
    """The boundary layers that the shots along the first chart axis of
    ``expr`` at (1, ..., 1) enter or move to."""
    layers = []
    aligned = _BoundaryLayer._aligned

    def recording(self):
        layer, r = aligned(self)
        layers.append(layer)
        return layer, r

    frame = make_chart(HomogeneousPolynomial.parse(expr), np.ones(3))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_BoundaryLayer, "_aligned", recording)
        for sign in (1.0, -1.0):
            geodesic_shoot(frame, np.zeros(2), sign * np.eye(2)[0], max_len=WITNESS_MAX_LEN)
    return layers


@pytest.mark.parametrize("expr", ["x^2*y*z", "x*y*z", "x^3*y*z"])
def test_boundary_layer_connection_equals_the_array_formulas(expr):
    layers = _entered_layers(expr)
    assert layers, expr
    for layer in layers:
        checked = 0
        # offsets into the region along either normal, with a tangential part
        for sign, s in itertools.product((1.0, -1.0), 10.0 ** -np.arange(1.0, 24.0, 0.25)):
            y = s * np.array([sign, 0.3])
            h, d, b, t = layer.derivatives(y, 3)
            if not 1e-21 <= h <= 2e-3:
                continue
            gamma, g = layer.connection(y)
            ref_gamma, ref_g = _old_jet_gamma(layer.degree, h, d, b, t)
            assert _same(gamma, ref_gamma) and _same(g, ref_g), (expr, y)
            checked += 1
        assert checked >= 10, (expr, checked)


def test_connection_of_an_underflowing_jet_equals_the_array_formulas():
    # where a power of h underflows to zero, the divisions by it give inf and
    # nan as the arrays' do (or both solves raise), instead of raising
    rng = np.random.default_rng(14)
    for n, k, hx in itertools.product((1, 2, 3), (1.5, 3.0), (1e-105, 1e-110, 1e-160, 1e-170, 1e-320)):
        d, b, t = rng.standard_normal(n), rng.standard_normal((n, n)), rng.standard_normal((n, n, n))
        outcomes = []
        for connection in (jet_connection, _old_jet_gamma):
            with np.errstate(all="ignore"):
                try:
                    outcomes.append(connection(k, np.float64(hx), d, b, t))
                except np.linalg.LinAlgError:
                    outcomes.append(None)
        got, want = outcomes
        assert (got is None) == (want is None), (n, k, hx)
        if got is not None:
            assert _same(got[0], want[0]) and _same(got[1], want[1]), (n, k, hx)


def test_dp_step_equals_the_list_built_stages():
    for label, _, frame in _frames(maps=True):
        def connection(c):
            return levi_civita_gamma(frame, c)

        for c in frame.sample_coords(4, max_frac=0.6, seed=4):
            gamma, g = connection(c)
            v = np.linalg.solve(np.linalg.cholesky(g).T, np.ones(frame.chart_dim))  # of speed sqrt(n)
            a = -((gamma @ v) @ v)
            for step in (1e-3, 0.05):
                got = _dp_step(connection, c, v, a, step)
                want = _old_dp_step(connection, c, v, a, step)
                for name, x, y in zip(("c", "v", "a", "g", "err_c", "err_v"), got, want):
                    assert _same(x, y), (label, name, step)


def _bisect_cases():
    """(label, coeffs, t0, w): random rows plus the edge cases."""
    rng = np.random.default_rng(13)
    cases = [
        ("no sign change", [1.0, 0.0, 1.0], 0.5, 0.1),
        ("vlo == 0", [-1.0, 1.0], 1.5, 0.5),  # lo = 1 is the zero
        ("negative bracket", [6.0, 5.0, 1.0], -2.1, 0.3),  # zeros -2 and -3
        ("near-double zero", np.polynomial.polynomial.polyfromroots([0.7, 0.7 + 1e-6]), 0.7 - 1e-7, 5e-7),
        ("double zero", np.polynomial.polynomial.polyfromroots([0.3, 0.3, -1.0]), 0.3, 1e-4),
        ("tiny bracket", [-1.0, 1.0], 1.0, 3e-16),
    ]
    for i in range(40):
        roots = rng.uniform(-3.0, 3.0, rng.integers(1, 6))
        coeffs = np.polynomial.polynomial.polyfromroots(roots) * rng.choice([-2.0, 0.5])
        cases.append((f"random {i}", coeffs, roots[0] + rng.normal(scale=1e-3), 10.0 ** rng.uniform(-8, 0)))
    return [(label, np.atleast_2d(np.asarray(c, dtype=float)), np.array([t0]), np.array([w])) for label, c, t0, w in cases]


def test_one_row_bisection_equals_the_array_path():
    cases = _bisect_cases()
    for label, coeffs, t0, w in cases:
        mid, ok = _bisect_rows(coeffs, t0, w)
        ref_mid, ref_ok = _old_bisect_rows(coeffs, t0, w)
        assert _same(mid, ref_mid) and ok.dtype == bool and ok.tolist() == ref_ok.tolist(), label
    assert [bool(_bisect_rows(c, t, w)[1][0]) for _, c, t, w in cases[:4]] == [False, False, True, True]
    # two rows of one degree take the array path, which rounds each row alike
    for (label, c1, t1, w1), (_, c2, t2, w2) in zip(cases[6::2], cases[7::2]):
        if c1.shape == c2.shape:
            mid, ok = _bisect_rows(np.vstack([c1, c2]), np.concatenate([t1, t2]), np.concatenate([w1, w2]))
            assert _same(mid, np.concatenate([_bisect_rows(c1, t1, w1)[0], _bisect_rows(c2, t2, w2)[0]])), label


# -- the fused polynomial jet ----------------------------------------------------------


def _random_polynomial(rng, dim, degree, n_terms=8):
    terms = {}
    for _ in range(n_terms):
        terms[tuple(rng.multinomial(degree, np.ones(dim) / dim))] = rng.normal() * 10.0 ** rng.uniform(-3, 3)
    return HomogeneousPolynomial(terms, dimension=dim)


def _jet_polynomials():
    rng = np.random.default_rng(21)
    polys = [func for _, func, _ in _frames() if isinstance(func, HomogeneousPolynomial)]
    polys += [HomogeneousPolynomial({(2, 0): 1.0}, dimension=2), HomogeneousPolynomial.parse("x^2 + y^2 - z^2")]
    polys += [_random_polynomial(rng, dim, degree) for dim in (2, 3, 4, 5) for degree in (2, 3, 4, 5, 6)]
    return polys


def test_fused_jet_equals_the_separate_evaluations():
    # every order bit for bit against the code the shared evaluator replaced,
    # at points with zero and -0.0 entries and at scales 1e-8 and 1e3
    rng = np.random.default_rng(22)
    for poly in _jet_polynomials():
        for i in range(60):
            x = rng.standard_normal(poly.dimension) * (1e-8, 1.0, 1e3)[i % 3]
            x[rng.random(poly.dimension) < 0.2] = 0.0
            x[rng.random(poly.dimension) < 0.2] = -0.0
            ref = _old_jet(poly, x) + (_old_derivative(poly, x, 4),)
            # evaluated afresh (the kept jet is the previous point's; order 3
            # takes and keeps this point's), then served from the kept jet
            fresh = (poly(x), poly.gradient(x), poly.hessian(x), poly.derivative_tensor(x, 3))
            third = poly.third_tensor(x)
            served = (poly(x), poly.gradient(x), poly.hessian(x), third)
            for got in (fresh, served):
                assert all(_same(a, b) for a, b in zip(got, ref)), (poly, x)
            assert _same(poly.value_rows(x[None]), [ref[0]]) and _same(poly.derivative_rows(x, 2)[0], ref[2])
            assert _same(poly.derivative_tensor(x, 4), ref[4]), (poly, x)


def test_kept_jet_serves_only_its_own_point(monkeypatch):
    poly = HomogeneousPolynomial.parse("x^3 - x*y^2 + 0.3*y^2*z + z^3")
    tables = []
    table = poly._jet_table
    monkeypatch.setattr(poly, "_jet_table", lambda orders: tables.append(orders) or table(orders))

    def evaluated(call, *args):  # the result, and whether it was evaluated rather than served
        del tables[:]
        return call(*args), bool(tables)

    x = np.array([0.7, -0.0, 0.4])
    poly.third_tensor(x)
    # +0.0 is not the kept point -0.0 bit for bit, though the values agree
    zero = np.array([0.7, 0.0, 0.4])
    value, fresh = evaluated(poly, zero)
    assert fresh and _same(value, _old_value_rows(poly, zero)[0])
    value, fresh = evaluated(poly, x.copy())
    assert not fresh and _same(value, _old_value_rows(poly, x)[0])
    # a caller that changes its array in place after the call gets the new point
    x[0] = 0.9
    assert _same(poly(x), _old_value_rows(poly, x)[0]) and poly(x) != _old_value_rows(poly, [0.7, 0.0, 0.4])[0]
    for order in (1, 2, 3):
        assert _same(poly.derivative_tensor(x, order), _old_derivative(poly, x, order))
    # a caller that changes a returned array does not change the kept one
    y = np.array([0.5, 0.25, -0.125])
    third = poly.third_tensor(y)
    grad = poly.gradient(y)
    grad[:], third[:] = 7.0, 7.0
    assert _same(poly.gradient(y), _old_derivative(poly, y, 1))
    assert _same(poly.third_tensor(y), _old_derivative(poly, y, 3))
    # rows of more than one point are never served from it
    rows = np.array([y, y])
    value, fresh = evaluated(poly.value_rows, rows)
    assert fresh and _same(value, _old_value_rows(poly, rows))
