"""Boundary analysis of the positivity cone: regularity, the Lorentz
extension's determinant, and the genericity perturbation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import sampling
from .chart import ChartFrame, dot_rows, make_chart, tangent_bases
from .errors import DegenerateFrameError, UnboundedRayError
from .forms import eigen_counts, restrict_rows
from .homogeneous import HomogeneousPolynomial


@dataclass(frozen=True)
class BoundaryPoint:
    """First zero of the function along a chart ray, normalized to |x| = 1."""

    point: np.ndarray
    direction: np.ndarray
    ray_distance: float
    gradient: np.ndarray
    hval: float
    multiplicity: int = 1  # of the zero, as the ray solve's polish treated it


@dataclass(frozen=True)
class RegularityEntry:
    point: list
    condition_i: bool
    gradient_norm: float
    condition_ii: bool | None  # None when (i) fails (tangent space unresolved)
    regular: bool


@dataclass
class RegularityReport:
    entries: list
    regular: bool
    closedness_failures: list = field(default_factory=list)
    lorentz_determinants: list = field(default_factory=list)
    multiple_zero_rays: int = 0  # scan rays whose zero was polished as multiple

    def to_json(self) -> dict:
        """The analysis report's ``boundary`` block: verdict and failure counts."""
        return {
            "regular": self.regular,
            "n_points": len(self.entries),
            "closedness_failures": self.closedness_failures,
            "condition_i_failures": sum(1 for e in self.entries if not e.condition_i),
            "condition_ii_failures": sum(1 for e in self.entries if e.condition_i and not e.condition_ii),
            "lorentz_det_all_negative": bool(self.lorentz_determinants)
            and all(d < 0.0 for d in self.lorentz_determinants if not math.isnan(d)),
            "multiple_zero_rays": self.multiple_zero_rays,
        }


def default_direction_count(chart_dim: int) -> int:
    if chart_dim == 1:
        return 2  # the slice of a planar cone is an interval: two rays
    return 500 if chart_dim <= 3 else 5000


def boundary_scan(
    frame: ChartFrame,
    count: int | None = None,
    directions=None,
    unbounded_ok: bool = False,
) -> list:
    """Locate boundary points of the cone along chart rays from the origin,
    all rays in one :meth:`ChartFrame.boundary_distances` call.  A ray that
    stays inside the positivity region, witnessing that the slice is not
    relatively compact, raises :class:`UnboundedRayError`, or with
    ``unbounded_ok`` gives None in its place."""
    if directions is None:
        n = count if count is not None else default_direction_count(frame.chart_dim)
        directions = sampling.unit_directions(frame.chart_dim, n, 0)
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    dists, mults, points = _scan_rows(frame, directions, unbounded_ok)
    jets = zip(points, frame.func.derivative_rows(points, 1), frame.func.derivative_rows(points, 0).tolist())
    out = [None] * len(directions)
    for i, (x, grad, hval) in zip(np.flatnonzero(np.isfinite(dists)), jets):
        out[i] = BoundaryPoint(x, directions[i], float(dists[i]), grad, hval, int(mults[i]))
    return out


def _scan_rows(frame: ChartFrame, directions, unbounded_ok: bool):
    """Distances and multiplicities of the first zeros along the chart rays
    (inf and 0 on unbounded rays), and the unit boundary points of the
    bounded rays, each row rounded as :meth:`ChartFrame.point` rounds it."""
    origin = np.zeros(frame.chart_dim)
    dists, mults = frame.boundary_distances(origin, directions, multiplicity=True)
    bounded = np.isfinite(dists)
    if not (unbounded_ok or bounded.all()):
        raise UnboundedRayError(origin, directions[np.argmin(bounded)], frame.ray_limit)
    x = frame.origin + np.matmul((dists[bounded, None] * directions[bounded])[:, None, :], frame.basis)[:, 0]
    norm = np.sqrt(dot_rows(x, x))
    if (norm == 0.0).any():
        raise DegenerateFrameError("boundary ray passes through the origin")
    return dists, mults, x / norm[:, None]


def _gradient_scale(frame: ChartFrame) -> float:
    # |grad h| at the unit point of the origin ray; nonzero, as h(origin) > 0
    return float(np.linalg.norm(frame.func.gradient(frame.origin / np.linalg.norm(frame.origin))))


def _boundary_tangent_bases(frame: ChartFrame, grads):
    """Bases (m, n-1, d) of the boundary tangent directions inside the slice
    at points with nonzero differentials ``grads``: the kernels of the chart
    gradients.  No chart gradient is zero: Euler's identity gives
    grad . x = k h = 0 at a boundary point x, and the slice is transversal,
    so grad . basis = 0 would make grad zero, which condition (i) excludes."""
    chart_grads = np.matmul(frame.basis, grads[:, :, None])[:, :, 0]  # each row rounded as alone
    return tangent_bases(chart_grads) @ frame.basis


_REGULAR_TOL = 1e-6  # relative zero of an eigenvalue in the regularity conditions
_LORENTZ_TOL = 1e-9  # and in the Lorentz extension's slice block


def _boundary_rows(frame: ChartFrame, points, grads, floor: float):
    """Regularity and Lorentz extension at boundary points (the rows of
    ``points``, with gradients ``grads``), all rows in one stacked pass.

    (i) the differential does not vanish: its norm exceeds ``floor``; (ii)
    minus the Hessian is positive definite on the boundary tangent directions
    inside the slice.  An eigenvalue counts as zero within 1e-6 of its
    restricted form's size (:meth:`SymmetricForm.signature`).  This slice
    form of (ii) is equivalent to positive semidefiniteness with a
    one-dimensional kernel on the full boundary tangent space: that space is
    the ray direction x plus the slice directions, and Euler's identity gives
    -Hess h . x = -(k-1) dh, which vanishes on it, so x is in the kernel.

    The extension is the Gram matrix of minus the Hessian in the adapted
    frame (gradient, ray direction, slice tangents orthonormalized for the
    slice block).  Its slice block is the identity, so by Cauchy interlacing
    a negative determinant forces the signature (d-1, 1, 0).  Returns the
    entries and the determinants, nan where (i) fails or the slice block is
    not positive definite at 1e-9 or has no Cholesky factor.
    """
    k, gnorm = frame.chart_dim - 1, np.sqrt(dot_rows(grads, grads))
    rows = np.flatnonzero(gnorm > floor)
    beta = -frame.func.derivative_rows(points[rows], 2)
    beta = 0.5 * (beta + np.swapaxes(beta, 1, 2))
    slice_vecs = _boundary_tangent_bases(frame, grads[rows])
    block = restrict_rows(beta, slice_vecs)
    eigs, scale = np.linalg.eigvalsh(block), np.abs(block).max(axis=(1, 2), initial=0.0)
    cond_ii = eigen_counts(eigs, scale, _REGULAR_TOL)[:, 0] == k
    ok = eigen_counts(eigs, scale, _LORENTZ_TOL)[:, 0] == k
    chol = _cholesky_rows(block[ok])
    factored = ~np.isnan(chol).any(axis=(1, 2))
    ok[ok] = factored
    ext = rows[ok]  # the points whose extension is defined
    ortho = np.linalg.solve(chol[factored], slice_vecs[ok])
    adapted = np.concatenate([grads[ext, None], points[ext, None], ortho], axis=1)
    gram = adapted @ beta[ok] @ np.swapaxes(adapted, 1, 2)
    det = np.full(len(points), np.nan)
    det[ext] = np.linalg.det(0.5 * (gram + np.swapaxes(gram, 1, 2)))
    points, gnorm = points.tolist(), gnorm.tolist()
    entries = [RegularityEntry(x, False, g, None, False) for x, g in zip(points, gnorm)]
    for i, ii in zip(rows.tolist(), cond_ii.tolist()):
        entries[i] = RegularityEntry(points[i], True, gnorm[i], ii, ii)
    return entries, det


def _cholesky_rows(mats) -> np.ndarray:
    """Cholesky factors of a stack of matrices; nan where one has none."""
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:  # the stack fails as a whole: factor row by row
        return np.concatenate([_cholesky_rows(m[None]) for m in mats]) if len(mats) > 1 else mats * np.nan


def regularity_report(frame: ChartFrame, count: int | None = None, seed: int = 0) -> RegularityReport:
    """Scan the boundary and check the two regularity conditions at every
    scanned point and, where both hold, the Lorentz extension's determinant
    (nan where it is undefined), in one stacked pass of :func:`_boundary_rows`.
    Condition (i) is relative to |grad h| at the unit point of the origin
    ray, so that it scales with h."""
    n = count if count is not None else default_direction_count(frame.chart_dim)
    directions = sampling.unit_directions(frame.chart_dim, n, seed)
    dists, mults, points = _scan_rows(frame, directions, unbounded_ok=True)
    grads = frame.func.derivative_rows(points, 1)
    entries, det = _boundary_rows(frame, points, grads, _REGULAR_TOL * _gradient_scale(frame))
    failures = [{"direction": d.tolist(), "radius": frame.ray_limit} for d in directions[np.isinf(dists)]]
    return RegularityReport(
        entries=entries,
        regular=bool(entries) and all(e.regular for e in entries) and not failures,
        closedness_failures=failures,
        lorentz_determinants=det[[e.regular for e in entries]].tolist(),
        multiple_zero_rays=int(np.sum(mults >= 2)),
    )


def gen_perturb(frame: ChartFrame, eps_pert: float):
    """Regularizing perturbation: subtract eps times the k-th power of the
    linear form that is 1 on the slice, and re-chart through the base point.

    Returns (perturbed polynomial, chart frame of its level-set component).
    """
    if not (0.0 < eps_pert < 1.0):
        raise ValueError(f"perturbation size must lie in (0, 1), got {eps_pert}")
    if not isinstance(frame.func, HomogeneousPolynomial):
        raise ValueError("perturbation is defined for polynomials")
    if not frame.tangent:
        raise DegenerateFrameError("perturbation requires a tangent frame")
    covector = frame.normal / frame.degree  # equals 1 on the slice hyperplane
    perturbed = frame.func.subtract_power_of_linear_form(covector, eps_pert)
    new_frame = make_chart(perturbed, frame.origin)
    return perturbed, new_frame
