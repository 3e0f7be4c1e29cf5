"""Boundary analysis of the positivity cone: regularity, Lorentz extension,
and the genericity perturbation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sampling
from .chart import ChartFrame, make_chart, tangent_basis_at
from .errors import DegenerateFrameError, UnboundedRayError
from .forms import SymmetricForm
from .homogeneous import HomogeneousPolynomial


@dataclass(frozen=True)
class BoundaryPoint:
    """First zero of the function along a chart ray, normalized to |x| = 1."""

    point: np.ndarray
    origin_coords: np.ndarray
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
        return {
            "point": self.point,
            "condition_i": self.condition_i,
            "gradient_norm": self.gradient_norm,
            "condition_ii": self.condition_ii,
            "boundary_tangent_dim": self.boundary_tangent_dim,
            "psd": self.psd,
            "kernel_dim": self.kernel_dim,
            "regular": self.regular,
        }


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
    origin = np.zeros(frame.chart_dim)
    dists, mults = frame.boundary_distances(origin, directions, multiplicity=True)
    out = []
    for d, t, mult in zip(directions, dists.tolist(), mults.tolist()):
        if t == np.inf:
            if not unbounded_ok:
                raise UnboundedRayError(origin, d, frame.ray_limit)
            out.append(None)
            continue
        x = frame.point(t * d)
        norm = np.linalg.norm(x)
        if norm == 0.0:
            raise DegenerateFrameError("boundary ray passes through the origin")
        x_unit = x / norm
        out.append(BoundaryPoint(x_unit, origin, d, t, frame.func.gradient(x_unit), frame.func(x_unit), mult))
    return out


def _gradient_scale(frame: ChartFrame) -> float:
    p = frame.origin / np.linalg.norm(frame.origin)
    return max(1.0, float(np.linalg.norm(frame.func.gradient(p))))


def _boundary_tangent_bases(frame: ChartFrame, bp: BoundaryPoint):
    """Bases of the full boundary tangent space (kernel of the differential)
    and of its intersection with the slice directions."""
    full = tangent_basis_at(frame.func, bp.point)
    # kernel restricted to slice directions: solve (grad . basis^T) a = 0
    row = frame.basis @ bp.gradient
    n = frame.chart_dim
    if n == 1:
        slice_vecs = np.zeros((0, frame.dimension))
    else:
        _, _, vt = np.linalg.svd(row.reshape(1, n))
        null = vt[1:]  # (n-1, n) coefficient-space kernel
        slice_vecs = null @ frame.basis
    return full, slice_vecs


def regular_boundary_check(frame: ChartFrame, bp: BoundaryPoint, tol: float = 1e-6) -> RegularityEntry:
    """Check the two regularity conditions at one boundary point.

    (i) the differential does not vanish; (ii) minus the Hessian is positive
    definite on the boundary tangent directions inside the slice (equivalent
    to positive semidefiniteness with one-dimensional kernel on the full
    boundary tangent space, the kernel being the ray direction).
    """
    gnorm = float(np.linalg.norm(bp.gradient))
    cond_i = gnorm > tol * _gradient_scale(frame)
    if not cond_i:
        return RegularityEntry(
            point=bp.point.tolist(),
            condition_i=False,
            gradient_norm=gnorm,
            condition_ii=None,
            boundary_tangent_dim=None,
            psd=None,
            kernel_dim=None,
            regular=False,
        )
    full, slice_vecs = _boundary_tangent_bases(frame, bp)
    beta = SymmetricForm(-frame.func.hessian(bp.point))
    if len(slice_vecs):
        cond_ii = beta.restrict(slice_vecs).is_definite(1, tol)
    else:
        cond_ii = True  # zero-dimensional boundary tangent inside the slice
    psd, kernel_dim = beta.restrict(full).psd_with_kernel_dim(tol) if len(full) else (True, 0)
    return RegularityEntry(
        point=bp.point.tolist(),
        condition_i=True,
        gradient_norm=gnorm,
        condition_ii=cond_ii,
        boundary_tangent_dim=len(slice_vecs),
        psd=psd,
        kernel_dim=kernel_dim,
        regular=cond_ii,
    )


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
    signature (d-1, 1, 0) certify the Lorentzian extension across the boundary."""
    gnorm = np.linalg.norm(bp.gradient)
    if gnorm == 0.0:
        raise DegenerateFrameError("adapted frame undefined where the gradient vanishes")
    beta = SymmetricForm(-frame.func.hessian(bp.point))
    _, slice_vecs = _boundary_tangent_bases(frame, bp)
    adapted = [bp.gradient, bp.point]
    if len(slice_vecs):
        restricted = beta.restrict(slice_vecs)
        if not restricted.is_definite(1, max(tol, 1e-9)):
            raise DegenerateFrameError("boundary tangent block is not positive definite")
        # orthonormalize the boundary tangents for the inner block
        chol = np.linalg.cholesky(restricted.matrix)
        ortho = np.linalg.solve(chol, slice_vecs)
        adapted.extend(ortho)
    gram = np.array([[beta.value(u, v) for v in adapted] for u in adapted])
    form = SymmetricForm(gram)
    sig = form.signature(max(tol, 1e-12))
    return LorentzExtension(gram=gram, determinant=form.det(), signature=(sig.n_pos, sig.n_neg, sig.n_zero))


def regularity_report(
    frame: ChartFrame,
    count: int | None = None,
    tol: float = 1e-6,
    seed: int = 0,
) -> RegularityReport:
    """Scan the boundary and aggregate the per-point regularity checks."""
    n = count if count is not None else default_direction_count(frame.chart_dim)
    directions = sampling.unit_directions(frame.chart_dim, n, seed)
    points = boundary_scan(frame, directions=directions, unbounded_ok=True)
    entries = []
    failures = []
    determinants = []
    for d, bp in zip(directions, points):
        if bp is None:
            failures.append({"direction": d.tolist(), "radius": frame.ray_limit})
            continue
        entry = regular_boundary_check(frame, bp, tol=tol)
        entries.append(entry)
        if entry.condition_i and entry.condition_ii:
            try:
                ext = lorentz_extension_check(frame, bp)
                determinants.append(ext.determinant)
            except DegenerateFrameError:
                determinants.append(float("nan"))
    regular = bool(entries) and all(e.regular for e in entries) and not failures
    return RegularityReport(
        entries=entries,
        regular=regular,
        closedness_failures=failures,
        lorentz_determinants=determinants,
        multiple_zero_rays=sum(1 for bp in points if bp is not None and bp.multiplicity >= 2),
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
