"""Boundary analysis of the positivity cone: regularity, Lorentz extension,
and the genericity perturbation."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import sampling
from .chart import ChartFrame, dot_rows, make_chart, tangent_bases
from .errors import DegenerateFrameError, UnboundedRayError
from .forms import eigen_counts, restrict_rows, signature_rows
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
    boundary_tangent_dim: int | None
    psd: bool | None
    kernel_dim: int | None
    regular: bool

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class RegularityReport:
    entries: list
    regular: bool
    closedness_failures: list = field(default_factory=list)
    lorentz_determinants: list = field(default_factory=list)
    multiple_zero_rays: int = 0  # scan rays whose zero was polished as multiple

    def to_json(self) -> dict:
        return {
            "regular": self.regular,
            "n_points": len(self.entries),
            "closedness_failures": self.closedness_failures,
            "entries": [e.to_json() for e in self.entries],
            "lorentz_determinants": self.lorentz_determinants,
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
    seed: int = 0,
    unbounded_ok: bool = False,
) -> list:
    """Locate boundary points of the cone along chart rays from the origin,
    all rays in one :meth:`ChartFrame.boundary_distances` call.  A ray that
    stays inside the positivity region, witnessing that the slice is not
    relatively compact, raises :class:`UnboundedRayError`, or with
    ``unbounded_ok`` gives None in its place."""
    if directions is None:
        n = count if count is not None else default_direction_count(frame.chart_dim)
        directions = sampling.unit_directions(frame.chart_dim, n, seed)
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
    """Bases of the full boundary tangent spaces (kernels of the nonzero
    differentials ``grads``: (m, d-1, d)) and of their intersections with
    the slice directions ((m, n-1, d))."""
    full = tangent_bases(grads)
    if frame.chart_dim == 1:
        return full, np.zeros((len(grads), 0, frame.dimension))
    # kernel restricted to slice directions: the null space of grad . basis^T
    row = np.matmul(frame.basis, grads[:, :, None])  # (m, n, 1)
    null = np.linalg.svd(np.swapaxes(row, 1, 2))[2][:, 1:]  # (m, n-1, n)
    return full, null @ frame.basis


def _boundary_rows(frame: ChartFrame, points, grads, floor: float, tol=1e-6, lorentz_tol=1e-9):
    """Regularity and Lorentz extension at boundary points (the rows of
    ``points``, with gradients ``grads``), all rows in one stacked pass.

    (i) the differential does not vanish: its norm exceeds ``floor``; (ii)
    minus the Hessian is positive definite on the boundary tangent directions
    inside the slice (equivalent to positive semidefiniteness with
    one-dimensional kernel on the full boundary tangent space, the kernel
    being the ray direction).  An eigenvalue counts as zero within tol of
    its restricted form's size (:meth:`SymmetricForm.signature`).  The
    extension is the Gram data of minus the Hessian in the adapted frame
    (gradient, ray direction, slice tangents orthonormalized for the slice
    block); negative determinant and signature (d-1, 1, 0) certify it.
    Returns the entries and the Gram matrices, determinants and signatures,
    the determinant nan where (i) fails or the slice block is not positive
    definite at max(lorentz_tol, 1e-9) or has no Cholesky factor.
    """
    k, gnorm = frame.chart_dim - 1, np.sqrt(dot_rows(grads, grads))
    rows = np.flatnonzero(gnorm > floor)
    beta = -frame.func.derivative_rows(points[rows], 2)
    beta = 0.5 * (beta + np.swapaxes(beta, 1, 2))
    full, slice_vecs = _boundary_tangent_bases(frame, grads[rows])
    block = restrict_rows(beta, slice_vecs)
    eigs, scale = np.linalg.eigvalsh(block), np.abs(block).max(axis=(1, 2), initial=0.0)
    cond_ii = eigen_counts(eigs, scale, tol)[:, 0] == k
    psd = signature_rows(restrict_rows(beta, full), tol)
    ok = eigen_counts(eigs, scale, max(lorentz_tol, 1e-9))[:, 0] == k
    chol = _cholesky_rows(block[ok])
    factored = ~np.isnan(chol).any(axis=(1, 2))
    ok[ok] = factored
    ext = rows[ok]  # the points whose extension is defined
    ortho = np.linalg.solve(chol[factored], slice_vecs[ok])
    adapted = np.concatenate([grads[ext, None], points[ext, None], ortho], axis=1)
    gram = np.full((len(points),) + beta.shape[1:], np.nan)
    gram[ext] = adapted @ beta[ok] @ np.swapaxes(adapted, 1, 2)
    sym = 0.5 * (gram[ext] + np.swapaxes(gram[ext], 1, 2))
    det, signature = np.full(len(points), np.nan), np.zeros((len(points), 3), dtype=int)
    det[ext], signature[ext] = np.linalg.det(sym), signature_rows(sym, max(lorentz_tol, 1e-12))
    points, gnorm = points.tolist(), gnorm.tolist()
    entries = [RegularityEntry(x, False, g, None, None, None, None, False) for x, g in zip(points, gnorm)]
    for i, ii, (_, n_neg, n_zero) in zip(rows.tolist(), cond_ii.tolist(), psd.tolist()):
        entries[i] = RegularityEntry(points[i], True, gnorm[i], ii, k, n_neg == 0, n_zero, ii)
    return entries, gram, det, signature


def _cholesky_rows(mats) -> np.ndarray:
    """Cholesky factors of a stack of matrices; nan where one has none."""
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:  # the stack fails as a whole: factor row by row
        return np.concatenate([_cholesky_rows(m[None]) for m in mats]) if len(mats) > 1 else mats * np.nan


def regular_boundary_check(frame: ChartFrame, bp: BoundaryPoint, tol: float = 1e-6) -> RegularityEntry:
    """Check the two regularity conditions at one boundary point, condition
    (i) relative to |grad h| at the unit point of the origin ray, so that it
    scales with h: one row of :func:`_boundary_rows`."""
    return _boundary_rows(frame, bp.point[None], bp.gradient[None], tol * _gradient_scale(frame), tol)[0][0]


@dataclass(frozen=True)
class LorentzExtension:
    gram: np.ndarray
    determinant: float
    signature: tuple

    @property
    def det_negative(self) -> bool:
        return self.determinant < 0.0


def lorentz_extension_check(frame: ChartFrame, bp: BoundaryPoint, tol: float = 1e-9) -> LorentzExtension:
    """Gram data of minus the Hessian in the adapted boundary frame
    (gradient, ray direction, boundary tangents); negative determinant and
    signature (d-1, 1, 0) certify the Lorentzian extension across the
    boundary.  One row of :func:`_boundary_rows`."""
    if np.linalg.norm(bp.gradient) <= 1e-12:
        raise DegenerateFrameError("adapted frame undefined where the gradient vanishes")
    _, gram, det, signature = _boundary_rows(frame, bp.point[None], bp.gradient[None], 1e-12, lorentz_tol=tol)
    if np.isnan(det[0]):
        raise DegenerateFrameError("boundary tangent block is not positive definite")
    return LorentzExtension(gram=gram[0], determinant=float(det[0]), signature=tuple(signature[0].tolist()))


def regularity_report(
    frame: ChartFrame,
    count: int | None = None,
    tol: float = 1e-6,
    seed: int = 0,
) -> RegularityReport:
    """Scan the boundary and check :func:`regular_boundary_check` and, where
    both conditions hold, :func:`lorentz_extension_check` (nan where it
    raises) at every scanned point, in one stacked pass."""
    n = count if count is not None else default_direction_count(frame.chart_dim)
    directions = sampling.unit_directions(frame.chart_dim, n, seed)
    dists, mults, points = _scan_rows(frame, directions, unbounded_ok=True)
    grads = frame.func.derivative_rows(points, 1)
    entries, _, det, _ = _boundary_rows(frame, points, grads, tol * _gradient_scale(frame), tol)
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
