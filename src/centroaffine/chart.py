"""Level-set geometry: frames, radial charts, the metric formulas, cone metric.

A :class:`ChartFrame` fixes an affine hyperplane slice E of the positivity
cone of a homogeneous function and parametrizes the unit level set as the
radial graph over B = E intersected with the cone.  Tangent frames (E tangent
to the level set at a base point on it) are the default; general transversal
slices are supported for closed-form examples whose natural chart is not a
tangent plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sampling
from .errors import ConsistencyError, DegenerateFrameError, DomainError, UnboundedRayError
from .forms import SymmetricForm
from .homogeneous import (
    HomogeneousPolynomial,
    _fma,
    line_coefficients,
    polyval_rows,
    univariate_zeros_rows,
)

METHODS = ("pullback", "psi_formula", "u_formula")


def positive_root(value: float, k: float) -> float:
    """k-th root of a positive number via exp(log/k), guarding positivity."""
    if value <= 0.0:
        raise DomainError(f"expected a positive value, got {value}")
    return math.exp(math.log(value) / k)


def _bisect_rows(coeffs, t0, w):
    """Bisect each row's polynomial over [t0 - w, t0 + w]; returns the
    midpoints and whether the ends of a row's bracket differ in sign."""
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


def _polish_polynomial_zeros(coeffs, t0, width: float = 1e-3):
    """Refine a zero of each row's polynomial p from the matching entry of
    ``t0``; returns the zeros and the multiplicities they were treated as
    (inf and 0 where ``t0`` is inf).

    An m-fold zero is a simple zero of the (m-1)-th derivative, which is
    bisected; m is the order of the first derivative that does not vanish
    at t0 against the size of its terms there.  Close simple zeros can pass
    for a multiple one: if p does not vanish to rounding at the point found,
    p itself is bisected on the widest bracket around t0 (down to a
    millionth of ``width``) that holds a sign change.  Horner's rule leaves
    a simple zero uncertain by about 2k eps sum |c_i t^i| / |p'|; where that
    exceeds 1e-13 |t|, a Newton step on a compensated evaluation of p moves
    it onto the zero of the rounded coefficients.
    """
    zeros = np.array(t0, dtype=float)
    mults = np.zeros(len(zeros), dtype=int)
    rows = np.flatnonzero(np.isfinite(zeros))
    if not len(rows):
        return zeros, mults
    t = zeros[rows]
    chain = [np.asarray(coeffs, dtype=float)[rows]]
    while chain[-1].shape[1] > 1:
        chain.append(chain[-1][:, 1:] * np.arange(1, chain[-1].shape[1]))
    p = chain[0]
    mult = np.full(len(rows), len(chain) - 1)
    for m in range(len(chain) - 1, 0, -1):  # the lowest order that does not vanish wins
        scale = polyval_rows(np.abs(chain[m]), np.abs(t))
        mult[np.abs(polyval_rows(chain[m], t)) > 1e-4 * np.maximum(scale, 1e-300)] = m
    w = np.maximum(width * np.abs(t), 1e-9)
    out = t.copy()
    done = mult > 1
    for m in np.unique(mult[done]):
        sel = np.flatnonzero(mult == m)
        ps, ts = p[sel], t[sel]
        t1, ok = _bisect_rows(chain[m - 1][sel], ts, w[sel])
        rounding = np.maximum(np.abs(polyval_rows(ps, ts)), 1e-13 * polyval_rows(np.abs(ps), np.abs(ts)))
        rejected = ok & ~(np.abs(polyval_rows(ps, t1)) <= rounding)
        out[sel] = np.where(ok, t1, ts)
        done[sel[rejected]] = False
        mult[sel[rejected]] = 1
    shrink = w.copy()
    for _ in range(7):
        sel = np.flatnonzero(~done)
        if not len(sel):
            break
        t1, ok = _bisect_rows(p[sel], t[sel], shrink[sel])
        out[sel] = np.where(ok, t1, t[sel])
        done[sel[ok]] = True
        shrink[sel] *= 0.1
    slope = polyval_rows(chain[1], out)
    size = polyval_rows(np.abs(p), np.abs(out))
    loose = (mult == 1) & (2 * p.shape[1] * np.finfo(float).eps * size > 1e-13 * np.abs(out * slope))
    if loose.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            step = polyval_rows(p[loose], out[loose], compensated=True) / slope[loose]
        out[loose] -= np.where(np.abs(step) <= w[loose], step, 0.0)  # within the bracket
    zeros[rows] = out
    mults[rows] = mult
    return zeros, mults


def radial_projection(func, x) -> np.ndarray:
    """Project a cone point onto the unit level set along its ray."""
    x = np.asarray(x, dtype=float)
    hx = func(x)
    if hx <= 0.0:
        raise DomainError(f"cannot project: function value {hx} is not positive")
    return x / positive_root(hx, func.degree)


def tangent_basis_at(func, q, tol: float = 1e-12) -> np.ndarray:
    """Deterministic orthonormal basis of ker(dh) at q: one row of
    :func:`tangent_bases`."""
    q = np.asarray(q, dtype=float)
    grad = func.gradient(q)
    gnorm = np.linalg.norm(grad)
    if gnorm <= tol:
        raise DegenerateFrameError(f"gradient vanishes at {q.tolist()}")
    return tangent_bases(grad[None])[0]


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
        coords = np.atleast_1d(np.asarray(coords, dtype=float))
        return self.origin + coords @ self.basis

    def hval(self, coords) -> float:
        return self.func(self.point(coords))

    def embed(self, coords) -> np.ndarray:
        """Radial-graph parametrization of the unit level set over the slice."""
        return radial_projection(self.func, self.point(coords))

    def embed_jacobian(self, coords) -> np.ndarray:
        """(d, n) Jacobian of the embedding, columns are images of the basis."""
        x = self.point(coords)
        hx = self.func(x)
        if hx <= 0.0:
            raise DomainError(f"chart point left the cone (value {hx})")
        k = self.degree
        grad = self.func.gradient(x)
        a = hx ** (-1.0 / k)
        b = -(1.0 / k) * hx ** (-1.0 / k - 1.0)
        cols = [a * v + b * (grad @ v) * x for v in self.basis]
        return np.column_stack(cols)

    def embed_second(self, coords) -> np.ndarray:
        """(n, n, d) array of second derivatives of the embedding."""
        x = self.point(coords)
        hx = self.func(x)
        if hx <= 0.0:
            raise DomainError(f"chart point left the cone (value {hx})")
        k = self.degree
        grad = self.func.gradient(x)
        hess = self.func.hessian(x)
        c1 = -(1.0 / k) * hx ** (-1.0 / k - 1.0)
        c2 = (1.0 / k) * (1.0 / k + 1.0) * hx ** (-1.0 / k - 2.0)
        n = self.chart_dim
        out = np.empty((n, n, self.dimension))
        dh = self.basis @ grad
        hb = self.basis @ hess @ self.basis.T
        for i in range(n):
            for j in range(i, n):
                u, v = self.basis[i], self.basis[j]
                val = c1 * (dh[j] * u + dh[i] * v + hb[i, j] * x) + c2 * dh[i] * dh[j] * x
                out[i, j] = val
                out[j, i] = val
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

        Polynomial restrictions are solved exactly, all rays at once, through
        their univariate coefficients, which also locates zeros of even order
        (where the function touches zero without a sign change, as on
        non-regular boundary faces).  Maps are bracketed ray by ray by
        bisection on "inside the domain with positive value" up to
        ``ray_limit``.  With ``multiplicity``, also returns each zero's
        multiplicity as the polish treated it (0 if unbounded, 1 for maps).
        """
        coords = np.atleast_1d(np.asarray(coords, dtype=float))
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        if not np.any(directions != 0.0, axis=1).all():
            raise ValueError("direction must be nonzero")
        if self.hval(coords) <= 0.0:
            raise DomainError("ray origin is outside the positivity region")
        if isinstance(self.func, HomogeneousPolynomial):
            cf = line_coefficients(self.func, self.point(coords), self.vectors(directions))
            zeros = univariate_zeros_rows(cf)
            first = np.where(zeros > 0.0, zeros, np.inf).min(axis=1)
            dist, mult = _polish_polynomial_zeros(cf, first)
        else:
            dist = np.array([self._bisect_ray(coords, d) for d in directions])
            mult = np.isfinite(dist).astype(int)
        return (dist, mult) if multiplicity else dist

    def _bisect_ray(self, coords, direction) -> float:
        def inside(t):
            x = self.point(coords + t * direction)
            return self.func.contains(x) and 0.0 < self.func(x) < math.inf

        scale = 1.0 + float(np.linalg.norm(coords))
        t_lo, t_hi = 0.0, 1e-2 * scale
        while inside(t_hi):
            t_lo = t_hi
            t_hi *= 2.0
            if t_hi > self.ray_limit:
                return math.inf
        for _ in range(80):
            mid = 0.5 * (t_lo + t_hi)
            if mid == t_lo or mid == t_hi:
                break
            t_lo, t_hi = (mid, t_hi) if inside(mid) else (t_lo, mid)
            if t_hi - t_lo < 1e-14 * max(1.0, t_hi):
                break
        return 0.5 * (t_lo + t_hi)

    def _capped_distances(self, directions) -> np.ndarray:
        # a non-compact slice is sampled over a capped segment
        dist = self.boundary_distances(np.zeros(self.chart_dim), directions)
        cap = 5.0 * (1.0 + float(np.linalg.norm(self.origin)))
        return np.where(np.isinf(dist), cap, dist)

    def diameter(self, n_directions: int = 16, seed: int = 0) -> float:
        if self._diameter is None:
            dirs = sampling.unit_directions(self.chart_dim, max(2, n_directions), seed)
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
    if hs <= 0.0:
        raise DomainError(f"seed value must be positive, got {hs}")
    p = seed / positive_root(hs, func.degree)
    basis = tangent_basis_at(func, p)
    return ChartFrame(func, p, basis, tangent=True)


def slice_chart(func, origin, basis) -> ChartFrame:
    """Chart over a general transversal hyperplane slice (origin not required
    to lie on the unit level set)."""
    return ChartFrame(func, origin, basis, tangent=False)


# -- metric formulas ----------------------------------------------------------


def centroaffine_metric_ambient(frame_or_func, q, basis=None, tol: float = 1e-10):
    """Gram matrix of -(1/k) * Hessian on tangent vectors at a level-set point.

    Returns (form, basis).  ``basis`` defaults to the deterministic tangent
    basis at q; pass explicit vectors to evaluate the form on them instead.
    """
    func = frame_or_func.func if isinstance(frame_or_func, ChartFrame) else frame_or_func
    q = np.asarray(q, dtype=float)
    hq = func(q)
    if abs(hq - 1.0) > tol * max(1.0, abs(hq)):
        raise DomainError(f"point is not on the unit level set (value {hq})")
    if basis is None:
        basis = tangent_basis_at(func, q)
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    hess = func.hessian(q)
    gram = -(basis @ hess @ basis.T) / func.degree
    return SymmetricForm(gram), basis


def chart_metric(frame: ChartFrame, coords, method: str = "psi_formula") -> SymmetricForm:
    """Metric of the radial-graph parametrization in chart coordinates.

    Three equivalent routes are implemented; they differ in evaluation point
    and algebraic arrangement and are cross-checked by
    :func:`chart_metric_consistency`:

    - ``pullback``: Hessian at the projected level-set point, pulled back
      through the differential of the projection;
    - ``psi_formula``: Hessian and differential at the slice point itself;
    - ``u_formula``: Hessian of the k-th root of the slice restriction.
    """
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    x = frame.point(coords)
    func = frame.func
    k = frame.degree
    hx = func(x)
    if hx <= 0.0:
        raise DomainError(f"chart point outside the positivity region (value {hx})")
    if method == "pullback":
        jac = frame.embed_jacobian(coords)
        q = frame.embed(coords)
        hess_q = func.hessian(q)
        gram = -(jac.T @ hess_q @ jac) / k
        return SymmetricForm(gram)
    grad = func.gradient(x)
    dh = frame.basis @ grad
    hb = frame.basis @ func.hessian(x) @ frame.basis.T
    if method == "psi_formula":
        return SymmetricForm(jet_metric(k, hx, dh, hb))
    if method == "u_formula":
        u = hx ** (1.0 / k)
        hess_u = (1.0 / k) * hx ** (1.0 / k - 1.0) * hb + (1.0 / k) * (
            1.0 / k - 1.0
        ) * hx ** (1.0 / k - 2.0) * np.outer(dh, dh)
        return SymmetricForm(-hess_u / u)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def chart_metric_with_derivative(frame: ChartFrame, coords):
    """Chart metric and its coordinate derivative, both in closed form.

    Returns (g, dg) with dg[i, j, k] the i-derivative of g_jk; requires third
    derivatives of the underlying function.  Used for the metric (Levi-Civita)
    connection, whose geodesics preserve speed.
    """
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    x = frame.point(coords)
    func = frame.func
    k = frame.degree
    hx = func(x)
    if hx <= 0.0:
        raise DomainError(f"chart point outside the positivity region (value {hx})")
    bas = frame.basis
    d = bas @ func.gradient(x)
    b = bas @ func.hessian(x) @ bas.T
    t = contract_indices(func.third_tensor(x), bas)
    return jet_metric_with_derivative(k, hx, d, b, t)


def contract_indices(t, rows) -> np.ndarray:
    """Tensor t with every index contracted against the columns of ``rows``,
    so that each index of the result runs over the rows."""
    for _ in range(np.ndim(t)):
        t = np.tensordot(t, rows, axes=([0], [1]))
    return t


def jet_metric(k: float, hx: float, d, b) -> np.ndarray:
    """The ``psi_formula`` Gram matrix from the chart jet of h at a point:
    value ``hx``, chart gradient ``d`` and chart Hessian ``b``."""
    return -b / (k * hx) + ((k - 1.0) / (k * hx) ** 2) * np.outer(d, d)


def jet_metric_with_derivative(k: float, hx: float, d, b, t):
    """Chart metric and its coordinate derivative from the chart jet of h
    (``t`` is the chart third-derivative tensor); see
    :func:`chart_metric_with_derivative`."""
    g = jet_metric(k, hx, d, b)
    dd = d[:, None, None] * d[None, :, None] * d[None, None, :]
    sym_bd = b[:, :, None] * d[None, None, :] + b[:, None, :] * d[None, :, None]
    dg = (
        -t / (k * hx)
        + d[:, None, None] * b[None, :, :] / (k * hx * hx)
        + ((k - 1.0) / (k * k)) * (sym_bd / hx**2 - 2.0 * dd / hx**3)
    )
    return g, dg


def christoffel(g, dg) -> np.ndarray:
    """Levi-Civita coefficients (upper index first) of a metric ``g`` with
    coordinate derivative ``dg[i, j, k] = d_i g_jk``."""
    n = g.shape[0]
    # bracket[m, i, j] = dg[i, m, j] + dg[j, m, i] - dg[m, i, j]
    bracket = np.transpose(dg, (1, 0, 2)) + np.transpose(dg, (1, 2, 0)) - dg
    return 0.5 * np.linalg.solve(g, bracket.reshape(n, n * n)).reshape(n, n, n)


def levi_civita_gamma(frame: ChartFrame, coords):
    """Connection coefficients of the chart metric (upper index first)."""
    g, dg = chart_metric_with_derivative(frame, coords)
    return christoffel(g, dg), g


def chart_metric_consistency(frame: ChartFrame, coords, tol: float = 1e-6) -> float:
    """Max relative disagreement of the three metric routes; raises beyond tol."""
    grams = [chart_metric(frame, coords, m).matrix for m in METHODS]
    scale = max(1e-300, max(float(np.abs(g).max()) for g in grams))
    worst = 0.0
    for i in range(len(grams)):
        for j in range(i + 1, len(grams)):
            worst = max(worst, float(np.abs(grams[i] - grams[j]).max()) / scale)
    if worst > tol:
        raise ConsistencyError(
            f"chart metric routes disagree: relative deviation {worst:.3e} > {tol:g}"
        )
    return worst


# -- classification -----------------------------------------------------------


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
    witnesses for the disagreeing samples).
    """
    coords = frame.sample_coords(sample_size, max_frac=0.8, seed=seed)
    points = np.array([frame.embed(c) for c in coords]).reshape(len(coords), frame.dimension)
    bases = tangent_bases(frame.func.derivative_rows(points, 1))  # tangent_basis_at of every point
    counts = {"hyperbolic": 0, "elliptic": 0, "indefinite": 0}
    witnesses = []
    first_of: dict = {}
    for c, q, basis in zip(coords, points, bases):
        form, _ = centroaffine_metric_ambient(frame.func, q, basis)
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
        # a mixed sample is itself the witness even if every point is definite
        witnesses.extend(v for k, v in first_of.items() if k != "indefinite")
    return Classification(aggregate=aggregate, counts=counts, witnesses=witnesses)


# -- cone metric ---------------------------------------------------------------


def lorentz_metric(func, x, tol: float = 1e-9, validate: bool = True) -> SymmetricForm:
    """The form -(1/k) * Hessian at a cone point, as a metric on the cone.

    On a hyperbolic cone this has signature (d-1, 1, 0); with ``validate`` a
    different signature raises with the eigenvalues in the message.
    """
    x = np.asarray(x, dtype=float)
    form = SymmetricForm(-func.hessian(x) / func.degree)
    if validate:
        sig = form.signature(tol)
        if not (sig.n_pos == func.dimension - 1 and sig.n_neg == 1):
            raise ValueError(
                f"form is not Lorentzian at {x.tolist()}: signature {sig}, "
                f"eigenvalues {form.eigenvalues().tolist()}"
            )
    return form


def lorentz_identity_residuals(func, x) -> dict:
    """Absolute residuals of the homogeneity identities of the cone metric:
    radial: |g_L(x, x) + (k-1) h|; gradient: max |g_L(x, .) + ((k-1)/k) dh|."""
    x = np.asarray(x, dtype=float)
    k = func.degree
    form = lorentz_metric(func, x, validate=False)
    radial = abs(form.value(x, x) + (k - 1.0) * func(x))
    grad = func.gradient(x)
    gradient = float(np.abs(form.matrix @ x + ((k - 1.0) / k) * grad).max())
    return {"radial": radial, "gradient": gradient}


def cone_identity_residual(frame: ChartFrame, x, fd_step: float | None = None) -> float:
    """Residual of the warped-product splitting of the cone metric.

    With s = s0 * sqrt(h), s0 = 2 sqrt(k-1) / k, the cone metric equals
    -ds^2 + (s/s0)^2 * (projected level-set metric), the exact radius
    normalization of the metric-cone structure.  The radial differential ds
    is taken by central differences (step ``fd_step``), the level-set metric
    at the projected point, so both sides are computed along distinct routes.
    """
    func = frame.func
    x = np.asarray(x, dtype=float)
    k = frame.degree
    hx = func(x)
    if hx <= 0.0:
        raise DomainError(f"cone point has nonpositive value {hx}")
    if fd_step is None:
        fd_step = 1e-5 * (1.0 + float(np.linalg.norm(x)))
    s0 = 2.0 * math.sqrt(k - 1.0) / k

    def radius(p):
        return s0 * math.sqrt(func(p))

    tangent = tangent_basis_at(func, x)
    vectors = [x] + [v for v in tangent]
    ds = np.array(
        [(radius(x + fd_step * w) - radius(x - fd_step * w)) / (2.0 * fd_step) for w in vectors]
    )
    q = radial_projection(func, x)
    hess_q = func.hessian(q)
    grad = func.gradient(x)
    a = hx ** (-1.0 / k)
    b = -(1.0 / k) * hx ** (-1.0 / k - 1.0)
    images = [a * w + b * (grad @ w) * x for w in vectors]
    m = len(vectors)
    lhs = np.empty((m, m))
    rhs = np.empty((m, m))
    hess_x = func.hessian(x)
    for i in range(m):
        for j in range(i, m):
            lhs[i, j] = lhs[j, i] = -(vectors[i] @ hess_x @ vectors[j]) / k
            cross = -(images[i] @ hess_q @ images[j]) / k
            rhs[i, j] = rhs[j, i] = -ds[i] * ds[j] + hx * cross
    return float(np.abs(lhs - rhs).max())
