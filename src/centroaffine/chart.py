"""Level-set geometry: frames, radial charts, the metric formulas, cone metric.

A :class:`ChartFrame` fixes an affine hyperplane slice E of the positivity
cone of a homogeneous function and parametrizes the unit level set as the
radial graph over B = E intersected with the cone.  Tangent frames (E tangent
to the level set at a base point on it) are the default; general transversal
slices are supported for closed-form examples whose natural chart is not a
tangent plane.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from . import sampling
from .errors import ConsistencyError, DegenerateFrameError, DomainError, UnboundedRayError
from .forms import Signature, SymmetricForm, signature_rows
from .homogeneous import HomogeneousPolynomial, _fma, first_positive_zero_rows, line_coefficients

METHODS = ("pullback", "psi_formula", "u_formula")


def positive_root(value: float, k: float) -> float:
    """k-th root of a positive number via exp(log/k), guarding positivity."""
    if value <= 0.0:
        raise DomainError(f"expected a positive value, got {value}")
    return math.exp(math.log(value) / k)


def radial_projection(func, x) -> np.ndarray:
    """Project a cone point, or each row of ``x``, onto the unit level set
    along its ray."""
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    hx = func.derivative_rows(rows, 0)
    _require_positive(hx, "cannot project: function value {} is not positive")
    out = _project_rows(func.degree, rows, hx)
    return out if x.ndim > 1 else out[0]


def _project_rows(k: float, points, values) -> np.ndarray:
    """x / h(x)^(1/k) at each row x of ``points`` from its positive value."""
    return points / np.array([positive_root(h, k) for h in values.tolist()])[:, None]


def _require_positive(values, message: str) -> None:
    """Raise DomainError, with the value, at the first row not above zero."""
    bad = values <= 0.0
    if bad.any():
        raise DomainError(message.format(float(values[bad][0])))


def _power_rows(values, r: float) -> np.ndarray:
    """(m, 3) rows (h^r, r h^(r-1), r (r-1) h^(r-2)): the power h^r of each
    positive value h and its first two derivatives, on Python floats.
    Raises ValueError at the first h where one of them overflows."""
    rows = []
    for h in np.asarray(values).tolist():
        try:
            rows.append((h**r, r * h ** (r - 1.0), r * (r - 1.0) * h ** (r - 2.0)))
        except OverflowError:
            raise ValueError(f"the derivatives of h^{r:.6g} overflow at the value h = {h:.6g}") from None
    return np.array(rows)


def _differential_images(k: float, points, values, grads, vectors) -> np.ndarray:
    """Images a w + b <grad h(x), w> x of the vectors w (rows (r, d), or
    (m, r, d) per point) under the differential of x -> x / h(x)^(1/k) at
    each row x of ``points``, a = h^(-1/k), b = -(1/k) h^(-1/k-1): an
    (m, r, d) array, each image rounded as the one-point expression."""
    a, b, _ = _power_rows(values, -1.0 / k).T
    slopes = b[:, None] * dot_rows(grads[:, None, :], vectors)
    return a[:, None, None] * vectors + slopes[..., None] * points[:, None, :]


def tangent_bases_at(points, grads) -> np.ndarray:
    """Deterministic orthonormal bases of ker(dh) at the rows of ``points``:
    :func:`tangent_bases` of the gradients ``grads`` there; raises at the
    first point whose gradient norm is zero or not finite.
    No floor above zero: inside the cone Euler's identity gives
    |grad h(x)| |x| >= k h(x) > 0, however small h is."""
    norms = np.sqrt(dot_rows(grads, grads))
    bad = np.flatnonzero((norms == 0.0) | ~np.isfinite(norms))
    if bad.size:
        raise DegenerateFrameError(f"gradient vanishes or is not finite at {points[bad[0]].tolist()}")
    return tangent_bases(grads)


def dot_rows(a, b) -> np.ndarray:
    """Row-wise dot products, each rounded as the one-row ``a @ b`` is."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def tangent_bases(grads) -> np.ndarray:
    """Orthonormal bases (m, d-1, d) of the kernels of the nonzero rows of
    ``grads``, each by Gram-Schmidt of the standard basis against the unit
    normal, in order, skipping a vector whose residual norm is at most 1e-8."""
    m, dim = grads.shape
    normals, eye = grads / np.sqrt(dot_rows(grads, grads))[:, None], np.eye(dim)
    out = np.zeros((m, dim - 1, dim))
    count = np.zeros(m, dtype=int)
    for i in range(dim):
        # e_i . n is n_i exactly; v has no -0 entry, so a slot not yet filled subtracts nothing
        v = eye[i] - normals[:, i : i + 1] * normals
        for b in out.transpose(1, 0, 2)[:i]:  # the accepted vectors, in order
            v = v - dot_rows(v, b)[:, None] * b
        norm = np.sqrt(dot_rows(v, v))
        take = (norm > 1e-8) & (count < dim - 1)
        out[take, count[take]] = v[take] / norm[take, None]
        count += take
    if (count != dim - 1).any():
        raise DegenerateFrameError("could not complete a tangent basis")
    return out


class ChartFrame:
    """Affine slice of the cone with a fixed direction basis.

    Attributes
    ----------
    func : the homogeneous polynomial or map.
    origin : base point of the slice (on the unit level set for tangent frames).
    basis : (n, d) array of direction vectors spanning the slice.
    tangent : True when the slice is the tangent hyperplane at ``origin``.
    """

    def __init__(self, func, origin, basis, tangent: bool):
        origin = np.asarray(origin, dtype=float)
        basis = np.atleast_2d(np.asarray(basis, dtype=float))
        d = origin.size
        if basis.shape != (d - 1, d):
            raise DegenerateFrameError(
                f"basis must be ({d - 1}, {d}) for ambient dimension {d}, got {basis.shape}"
            )
        full = np.vstack([basis, origin])
        if np.linalg.matrix_rank(full, tol=1e-10 * max(1.0, np.abs(full).max())) != d:
            raise DegenerateFrameError("slice through the origin: rays are not transversal")
        hval = func(origin)
        if hval <= 0.0:
            raise DomainError(f"slice origin has nonpositive value {hval}")
        grad = func.gradient(origin)
        k = float(func.degree)
        if tangent:
            if abs(hval - 1.0) > 1e-12 * max(1.0, abs(hval)):
                raise DegenerateFrameError(f"tangent frame origin not on the unit level set: {hval}")
            gnorm = np.linalg.norm(grad)
            if gnorm == 0.0:
                raise DegenerateFrameError("gradient vanishes at the frame origin")
            if np.abs(basis @ grad).max() > 1e-10 * gnorm:
                raise DegenerateFrameError("basis is not tangent to the level set")
            if abs(grad @ origin - k * hval) > 1e-10 * max(1.0, k * abs(hval)):
                raise DegenerateFrameError("homogeneity identity fails at the frame origin")
        self.func = func
        self.origin = origin
        self.basis = basis
        self.normal = grad
        self.tangent = tangent
        self.degree = k
        self.dimension = d
        self.chart_dim = d - 1
        # chart distance beyond which a ray counts as unbounded
        self.ray_limit = 1e6 * max(1.0, float(np.linalg.norm(origin)))
        self._diameter: float | None = None

    # -- basic chart maps ---------------------------------------------------

    def point(self, coords) -> np.ndarray:
        """Slice point of chart coordinates, or one per row of ``coords``;
        a row rounds as it does alone."""
        coords = np.atleast_1d(np.asarray(coords, dtype=float))
        return self.origin + np.matmul(coords[..., None, :], self.basis)[..., 0, :]

    def hval(self, coords) -> float:
        return self.func(self.point(coords))

    def embed(self, coords) -> np.ndarray:
        """Radial-graph parametrization of the unit level set over the slice
        (one point per row of ``coords``)."""
        return radial_projection(self.func, self.point(coords))

    def _jets(self, coords, orders):
        """Slice points (rows), their values, then the derivative rows of
        each order in ``orders``; raises at the first point off the cone."""
        x = np.atleast_2d(self.point(coords))
        hx = self.func.derivative_rows(x, 0)
        _require_positive(hx, "chart point left the cone (value {})")
        return [x, hx] + [self.func.derivative_rows(x, order) for order in orders]

    def _embed_rows(self, x, hx, *_) -> np.ndarray:
        """:meth:`embed` of the rows of :meth:`_jets`."""
        return _project_rows(self.func.degree, x, hx)

    def _jacobian_rows(self, x, hx, grads, *_) -> np.ndarray:
        """(m, d, n) Jacobians of :meth:`embed` at the rows of :meth:`_jets`,
        the columns the images of the basis."""
        images = _differential_images(self.degree, x, hx, grads, self.basis)
        return np.ascontiguousarray(np.swapaxes(images, 1, 2))

    def _second_rows(self, x, hx, grads, hess) -> np.ndarray:
        """(m, n, n, d) second derivatives of the embedding at the rows of
        :meth:`_jets`."""
        _, c1, c2 = _power_rows(hx, -1.0 / self.degree).T
        dh = np.matmul(self.basis, grads[:, :, None])[:, :, 0]
        hb = self.basis @ hess @ self.basis.T
        u, v, xs = self.basis[None, :, None, :], self.basis[None, None, :, :], x[:, None, None, :]
        # out[i, j] for j >= i as c1 (dh_j u_i + dh_i u_j + hb_ij x) + c2 dh_i dh_j x, mirrored below
        out = c1[:, None, None, None] * (dh[:, None, :, None] * u + dh[:, :, None, None] * v + hb[..., None] * xs)
        out = out + ((c2[:, None, None] * dh[:, :, None]) * dh[:, None, :])[..., None] * xs
        upper = np.triu_indices(self.chart_dim)
        out[:, upper[1], upper[0]] = out[:, upper[0], upper[1]]
        return out

    # -- geometry of the slice -----------------------------------------------

    def vectors(self, directions) -> np.ndarray:
        """Ambient vectors of the chart directions (rows), accumulated term
        by term with fused multiply-adds, so that a row does not depend on
        the rows beside it."""
        rows = np.atleast_2d(np.asarray(directions, dtype=float))
        out = rows[:, :1] * self.basis[0]
        for i in range(1, self.chart_dim):
            out = _fma(rows[:, i : i + 1], self.basis[i], out)
        return out

    def boundary_distance(self, coords, direction) -> float:
        """One row of :meth:`boundary_distances`; an unbounded ray raises
        :class:`UnboundedRayError`."""
        direction = np.atleast_1d(np.asarray(direction, dtype=float))
        t = float(self.boundary_distances(coords, direction[None])[0])
        if math.isinf(t):
            raise UnboundedRayError(coords, direction, self.ray_limit)
        return t

    def boundary_distances(self, coords, directions, multiplicity: bool = False):
        """Distances (in chart coordinates) to the first zero of the function
        along the rays coords + t * direction, one per row of
        ``directions``; inf where a ray never leaves the positivity region.
        ``coords`` is one origin for every ray, or one origin per ray.

        The rays are solved together through the univariate coefficients of
        a polynomial along them (:func:`first_positive_zero_rows`): the
        function itself, or for a map P Q, positive exactly where P / Q is.
        This also locates zeros of even order (where the polynomial touches
        zero without a sign change, as on non-regular boundary faces); a zero
        that p neither crosses nor touches is solved again.  Each ray rounds
        as it does alone.  With ``multiplicity``, also returns each zero's
        multiplicity as the polish treated it (0 if unbounded).
        """
        dist, mult = first_positive_zero_rows(self.ray_coefficients(coords, directions))
        return (dist, mult) if multiplicity else dist

    def ray_coefficients(self, coords, directions) -> np.ndarray:
        """Coefficients (lowest order first) of the polynomial along each ray
        of :meth:`boundary_distances` whose first positive zero ends it."""
        coords = np.asarray(coords, dtype=float)
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        if not np.any(directions != 0.0, axis=1).all():
            raise ValueError("direction must be nonzero")
        x = self.point(coords)
        if (self.func.derivative_rows(np.atleast_2d(x), 0) <= 0.0).any():
            raise DomainError("ray origin is outside the positivity region")
        poly = self.func if isinstance(self.func, HomogeneousPolynomial) else self.func.positivity
        return line_coefficients(poly, x, self.vectors(directions))

    def _capped_distances(self, directions) -> np.ndarray:
        # each distinct ray is solved once; rays are told apart bit for bit, so -0.0 is not 0.0
        dirs = np.ascontiguousarray(directions, dtype=float)
        rays, back = np.unique(dirs.view(f"V{dirs.itemsize * self.chart_dim}"), return_inverse=True)
        dist = self.boundary_distances(np.zeros(self.chart_dim), rays.view(float).reshape(len(rays), -1))[back.ravel()]
        cap = 5.0 * (1.0 + float(np.linalg.norm(self.origin)))  # a non-compact slice is sampled over a capped segment
        return np.where(np.isinf(dist), cap, dist)

    def diameter(self) -> float:
        if self._diameter is None:
            dirs = sampling.unit_directions(self.chart_dim, 16, 0)
            self._diameter = 2.0 * max(0.0, float(self._capped_distances(dirs).max()))
        return self._diameter

    def sample_coords(self, count: int, max_frac: float = 0.9, seed: int = 0) -> np.ndarray:
        """Low-discrepancy points of B: radial grid scaled per-ray by the
        boundary distance; the outermost sample sits exactly at max_frac."""
        n = self.chart_dim
        per_ray = max(3, int(math.sqrt(count)))
        n_dirs = max(2 * n, math.ceil(count / per_ray))
        dirs = sampling.unit_directions(n, n_dirs, seed)
        fracs = sampling.radial_fractions(per_ray)
        fracs = fracs * (max_frac / fracs.max())
        # only the rays that hold one of the first ``count`` points are solved
        dirs = dirs[: math.ceil(count / per_ray)]
        radii = fracs[None, :] * self._capped_distances(dirs)[:, None]
        return (radii[:, :, None] * dirs[:, None, :]).reshape(-1, n)[:count]

    def __repr__(self):
        kind = "tangent" if self.tangent else "slice"
        return f"ChartFrame({kind}, origin={self.origin.tolist()})"


def make_chart(func, seed) -> ChartFrame:
    """Chart at the normalization of ``seed`` onto the unit level set.

    The tangent basis is orthonormalized against the Euclidean gradient in
    standard-basis order, so frames are reproducible across runs.
    """
    seed = np.asarray(seed, dtype=float)
    hs = func(seed)
    if 0.0 <= hs < np.finfo(float).tiny and seed.any():
        # h underflowed; by homogeneity the ray is the seed's, scaled to a largest coordinate of 1
        seed = seed / np.abs(seed).max()
        hs = func(seed)
    if hs <= 0.0:
        raise DomainError(f"seed value must be positive, got {hs}")
    p = seed / positive_root(hs, func.degree)
    basis = tangent_bases_at(p[None], func.gradient(p)[None])[0]
    return ChartFrame(func, p, basis, tangent=True)


def slice_chart(func, origin, basis) -> ChartFrame:
    """Chart over a general transversal hyperplane slice (origin not required
    to lie on the unit level set)."""
    return ChartFrame(func, origin, basis, tangent=False)


# -- metric formulas ----------------------------------------------------------


def ambient_metric_rows(func, points, bases) -> np.ndarray:
    """Gram matrices -(B H B^T)/k of the Hessians H at the rows of ``points``
    on the vectors B (r, d) of the matching row of ``bases``, symmetrized as
    :class:`SymmetricForm` stores them; each row rounds as it does alone.
    Raises at the first row off the unit level set by more than 1e-10
    (relative to the value, if that exceeds 1)."""
    hq = func.derivative_rows(points, 0)
    bad = np.flatnonzero(np.abs(hq - 1.0) > 1e-10 * np.maximum(1.0, np.abs(hq)))
    if bad.size:
        raise DomainError(f"point is not on the unit level set (value {float(hq[bad[0]])})")
    gram = -(bases @ func.derivative_rows(points, 2) @ np.swapaxes(bases, 1, 2)) / func.degree
    return 0.5 * (gram + np.swapaxes(gram, 1, 2))


def chart_metric(frame: ChartFrame, coords, method: str = "psi_formula") -> SymmetricForm:
    """Metric of the radial-graph parametrization in chart coordinates.

    Three equivalent routes are implemented; they differ in evaluation point
    and algebraic arrangement and are cross-checked by
    :func:`chart_metric_consistency_rows`:

    - ``pullback``: Hessian at the projected level-set point, pulled back
      through the differential of the projection;
    - ``psi_formula``: Hessian and differential at the slice point itself;
    - ``u_formula``: Hessian of the k-th root of the slice restriction.

    One row of :func:`chart_metric_rows`.
    """
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    return SymmetricForm(chart_metric_rows(frame, coords[None], method)[0])


def chart_metric_rows(frame: ChartFrame, coords, method: str = "psi_formula") -> np.ndarray:
    """Gram matrices (m, n, n) of :func:`chart_metric` at the rows of
    ``coords``, symmetrized as :class:`SymmetricForm` stores them; each row
    rounds as it does alone.  Raises at the first row outside the region."""
    x = frame.point(coords)
    func = frame.func
    hx = func.derivative_rows(x, 0)
    _require_positive(hx, "chart point outside the positivity region (value {})")
    grads = func.derivative_rows(x, 1)
    if method == "pullback":
        jac = frame._jacobian_rows(x, hx, grads)
        gram = -(np.swapaxes(jac, 1, 2) @ func.derivative_rows(frame._embed_rows(x, hx), 2) @ jac) / frame.degree
    elif method == "psi_formula":
        return _psi_rows(frame, hx, grads, func.derivative_rows(x, 2))
    elif method == "u_formula":
        dh = np.matmul(frame.basis, grads[:, :, None])[:, :, 0]
        hb = frame.basis @ func.derivative_rows(x, 2) @ frame.basis.T
        u, s1, s2 = _power_rows(hx, 1.0 / frame.degree).T[:, :, None, None]  # u = h^(1/k); Hess u = s1 hb + s2 dh dh^T
        gram = -(s1 * hb + s2 * (dh[:, :, None] * dh[:, None, :])) / u
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return 0.5 * (gram + np.swapaxes(gram, 1, 2))


def _psi_rows(frame: ChartFrame, values, grads, hessians) -> np.ndarray:
    """The ``psi_formula`` rows of :func:`chart_metric_rows` from the values,
    gradients and Hessians of h at the slice points."""
    k, n, bas = frame.degree, frame.chart_dim, frame.basis
    gram = np.array(
        [_metric_lists(k, h, bas @ g, bas @ b @ bas.T, None)[0] for h, g, b in zip(values.tolist(), grads, hessians)]
    ).reshape(-1, n, n)
    return 0.5 * (gram + np.swapaxes(gram, 1, 2))


def _chart_jet(frame: ChartFrame, coords) -> tuple:
    """(k, h, d, b, t): the degree, and the value, chart gradient, chart
    Hessian and chart third tensor of h at chart coordinates.  The third
    tensor is asked for first: a polynomial evaluates its whole jet there
    and keeps it, and the value, gradient and Hessian are read from it."""
    x = frame.point(coords)
    func, bas = frame.func, frame.basis
    t = contract_indices(func.third_tensor(x), bas)
    hx, grad, hess = func.lower_jet(x)
    if hx <= 0.0:
        raise DomainError(f"chart point outside the positivity region (value {hx})")
    return frame.degree, hx, bas @ grad, bas @ hess @ bas.T, t


def contract_indices(t, rows) -> np.ndarray:
    """Tensor t with every index contracted against the columns of ``rows``,
    so that each index of the result runs over the rows.  Each step is the
    one product ``np.tensordot(t, rows, axes=([0], [1]))`` makes, on the
    same operands, without its bookkeeping."""
    axes, cols = (*range(1, np.ndim(t)), 0), rows.T
    for _ in range(np.ndim(t)):
        lead = t.shape[1:]
        t = np.dot(t.transpose(axes).reshape(-1, len(cols)), cols).reshape(*lead, -1)
    return t


def _metric_lists(k: float, hx: float, d, b, t) -> tuple:
    """The chart metric g from the chart jet of h at a point (value ``hx``,
    chart gradient ``d``, chart Hessian ``b``) and, unless the chart third
    tensor ``t`` is None, its coordinate derivative dg (else empty), as flat
    lists in C order, entry by entry on Python floats:

        g[i, j]     = -b_ij / kh + ((k - 1) / kh^2) (d_i d_j)
        dg[i, j, l] = -t_ijl / kh + d_i b_jl / (kh h)
                      + ((k - 1) / k^2) ((b_ij d_l + b_il d_j) / h^2 - 2 d_i d_j d_l / h^3)

    with kh = k h.  No entry is mirrored from another, since neither t nor b
    is bitwise symmetric.  Where a power of h underflows to zero, the
    divisions by it give inf and nan, as numpy's would, instead of raising."""
    n = len(d)
    d, b = d.tolist(), b.tolist()
    t = [[()] * n] * n if t is None else t.tolist()  # no t: every innermost loop is empty
    hx = float(hx)
    kh = k * hx
    scales = (kh, kh * hx, hx**2, hx**3, kh**2)
    if 0.0 in scales:
        scales = tuple(map(np.float64, scales))
    kh, khh, h2, h3, kh2 = scales
    c0, c2 = (k - 1.0) / kh2, (k - 1.0) / (k * k)
    g, dg = [], []
    for di, bi, ti in zip(d, b, t):
        for dj, bij, bj, tij in zip(d, bi, b, ti):
            g.append(-bij / kh + c0 * (di * dj))
            dij = di * dj
            for dl, bil, bjl, tijl in zip(d, bi, bj, tij):
                dg.append(-tijl / kh + di * bjl / khh + c2 * ((bij * dl + bil * dj) / h2 - 2.0 * (dij * dl) / h3))
    return g, dg


def _christoffel(g, dg) -> np.ndarray:
    """Levi-Civita coefficients (upper index first) of the metric array ``g``
    from its coordinate derivative ``dg[i, j, k] = d_i g_jk``, a flat list in
    C order."""
    n = len(g)
    bracket = [dg[a] + dg[b] - dg[c] for a, b, c in _bracket_index(n)]
    return 0.5 * _solve(g, np.array(bracket).reshape(n, n * n)).reshape(n, n, n)


@functools.cache
def _bracket_index(n: int) -> tuple:
    """For each entry [m, i, j] of the bracket dg[i, m, j] + dg[j, m, i] -
    dg[m, i, j], in C order, the flat positions of its three terms in dg."""
    return tuple(
        ((i * n + m) * n + j, (j * n + m) * n + i, (m * n + i) * n + j)
        for m in range(n)
        for i in range(n)
        for j in range(n)
    )


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _solve(a, b) -> np.ndarray:
    """``np.linalg.solve(a, b)`` of a float matrix ``a`` (n, n) and float
    columns ``b`` (n, m): the same LAPACK gufunc under the same error state,
    without the input checks and conversions."""
    with np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.solve(a, b, signature="dd->d")


def jet_connection(k: float, hx: float, d, b, t):
    """Connection coefficients (upper index first) and metric from the chart
    jet of h: :func:`_christoffel` of the metric and derivative of
    :func:`_metric_lists`."""
    n = len(d)
    g, dg = _metric_lists(k, hx, d, b, t)
    g = np.array(g).reshape(n, n)
    return _christoffel(g, dg), g


def levi_civita_gamma(frame: ChartFrame, coords):
    """Connection coefficients of the chart metric (upper index first)."""
    return jet_connection(*_chart_jet(frame, coords))


def chart_metric_consistency_rows(frame: ChartFrame, coords, tol: float = 1e-6) -> np.ndarray:
    """Max relative disagreement of the three metric routes of
    :func:`chart_metric` at each row of ``coords``, relative to the largest
    entry of the three; raises :class:`ConsistencyError` at the first row
    beyond tol."""
    grams = [chart_metric_rows(frame, coords, m) for m in METHODS]
    scale = np.maximum(1e-300, np.fmax.reduce([np.abs(g).max(axis=(1, 2)) for g in grams]))
    pairs = [(i, j) for i in range(len(grams)) for j in range(i + 1, len(grams))]
    devs = [np.abs(grams[i] - grams[j]).max(axis=(1, 2)) / scale for i, j in pairs]
    worst = np.fmax.reduce(devs, initial=0.0)  # a nan deviation is skipped, as max() skips it
    bad = np.flatnonzero(worst > tol)
    if bad.size:
        raise ConsistencyError(
            f"chart metric routes disagree: relative deviation {worst[bad[0]]:.3e} > {tol:g}"
        )
    return worst


# -- classification -----------------------------------------------------------


KINDS = ("hyperbolic", "elliptic", "indefinite")


@dataclass(frozen=True)
class Classification:
    aggregate: str
    counts: dict
    witnesses: list


def classify(
    frame: ChartFrame,
    sample_size: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> Classification:
    """Signature of the level-set metric at projected chart samples.

    The aggregate verdict is unanimous or ``indefinite`` (with per-point
    witnesses for the disagreeing samples).  All samples go through one
    stacked pass: one evaluation of the Hessians, one of the Gram matrices
    and one eigenvalue solve, each row rounded as it is alone.
    """
    coords = frame.sample_coords(sample_size, max_frac=0.8, seed=seed)
    points = frame.embed(coords)
    bases = tangent_bases(frame.func.derivative_rows(points, 1))
    sigs = signature_rows(ambient_metric_rows(frame.func, points, bases), tol)
    dim = bases.shape[1]
    kinds = np.where(sigs[:, 0] == dim, 0, np.where(sigs[:, 1] == dim, 1, 2))  # by KINDS
    counts = {name: int((kinds == i).sum()) for i, name in enumerate(KINDS)}

    def witness(i):
        return coords[i].tolist(), Signature(*sigs[i].tolist(), tol)

    witnesses = [witness(i) for i in np.flatnonzero(kinds == 2)]
    if counts["hyperbolic"] == len(coords):
        aggregate = "hyperbolic"
    elif counts["elliptic"] == len(coords):
        aggregate = "elliptic"
    else:
        aggregate = "indefinite"
        # a mixed sample is itself the witness even if every point is definite:
        # the first point of each definite kind, in the order the kinds first occur
        firsts = sorted(np.flatnonzero(kinds == i)[0] for i in (0, 1) if counts[KINDS[i]])
        witnesses.extend(witness(i) for i in firsts)
    return Classification(aggregate=aggregate, counts=counts, witnesses=witnesses)


# -- cone metric ---------------------------------------------------------------


def lorentz_metric(func, x, validate: bool = True) -> SymmetricForm:
    """The form -(1/k) * Hessian at a cone point, as a metric on the cone.

    On a hyperbolic cone this has signature (d-1, 1, 0); with ``validate`` a
    different signature raises with the eigenvalues in the message.
    """
    x = np.asarray(x, dtype=float)
    form = SymmetricForm(-func.hessian(x) / func.degree)
    if validate:
        sig = form.signature()
        if not (sig.n_pos == func.dimension - 1 and sig.n_neg == 1):
            raise ValueError(
                f"form is not Lorentzian at {x.tolist()}: signature {sig}, "
                f"eigenvalues {form.eigenvalues().tolist()}"
            )
    return form


def lorentz_identity_residual_rows(k: float, points, values, grads, hessians):
    """Absolute residuals of the homogeneity identities of the cone metric
    at each row x of ``points``, from the values, gradients and Hessians
    there: radial |g_L(x, x) + (k-1) h| and gradient
    max |g_L(x, .) + ((k-1)/k) dh|.  g_L is -Hessian/k stored as
    :class:`SymmetricForm` stores it, and g_L(x, x) is evaluated as (x g_L) x."""
    forms = -hessians / k
    forms = 0.5 * (forms + np.swapaxes(forms, 1, 2))
    radial = np.abs(dot_rows(np.matmul(points[:, None, :], forms)[:, 0], points) + (k - 1.0) * values)
    lowered = np.matmul(forms, points[:, :, None])[:, :, 0]
    return radial, np.abs(lowered + ((k - 1.0) / k) * grads).max(axis=1)


def cone_identity_residual_rows(frame: ChartFrame, points) -> np.ndarray:
    """Residual of the warped-product splitting of the cone metric at each
    row x of ``points``.

    With s = s0 * sqrt(h), s0 = 2 sqrt(k-1) / k, the cone metric equals
    -ds^2 + (s/s0)^2 * (projected level-set metric), the exact radius
    normalization of the metric-cone structure.  The radial differential ds
    is taken by central differences (step 1e-5 (1 + |x|)), the level-set metric
    at the projected point, so both sides are computed along distinct routes.
    The two sides are compared on x itself and its tangent basis.  Raises at
    the first row that fails a check.
    """
    func = frame.func
    k = frame.degree
    hx = func.derivative_rows(points, 0)
    _require_positive(hx, "cone point has nonpositive value {}")
    steps = 1e-5 * (1.0 + np.sqrt(dot_rows(points, points)))
    grads = func.derivative_rows(points, 1)
    vectors = np.concatenate([points[:, None, :], tangent_bases_at(points, grads)], axis=1)
    shifts = steps[:, None, None] * vectors
    probes = np.stack([points[:, None, :] + shifts, points[:, None, :] - shifts], axis=2)
    s0 = 2.0 * math.sqrt(k - 1.0) / k
    radii = np.array([s0 * math.sqrt(h) for h in func.derivative_rows(probes.reshape(-1, frame.dimension), 0).tolist()])
    radii = radii.reshape(probes.shape[:3])
    ds = (radii[..., 0] - radii[..., 1]) / (2.0 * steps[:, None])
    q = _project_rows(k, points, hx)
    images = _differential_images(k, points, hx, grads, vectors)
    lhs = -_bilinear_rows(vectors, func.derivative_rows(points, 2)) / k
    cross = -_bilinear_rows(images, func.derivative_rows(q, 2)) / k
    rhs = -ds[:, :, None] * ds[:, None, :] + hx[:, None, None] * cross
    upper = np.triu_indices(vectors.shape[1])  # the one-point loop fills j >= i and mirrors it
    return np.abs(lhs - rhs)[:, upper[0], upper[1]].max(axis=1)


def _bilinear_rows(vectors, matrices) -> np.ndarray:
    """(v_i M) v_j for every pair of the vectors (m, r, d) of a row and its
    matrix (m, d, d), each rounded as the one-row ``v_i @ M @ v_j``."""
    vm = np.matmul(vectors[:, :, None, :], matrices[:, None])[:, :, 0, :]
    return dot_rows(vm[:, :, None, :], vectors[:, None, :, :])
