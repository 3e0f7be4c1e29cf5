"""Boundary analysis of the positivity cone: regularity, Lorentz extension,
compactness comparison bound, and the genericity perturbation."""

from __future__ import annotations

import math
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

    def to_json(self) -> dict:
        return {
            "regular": self.regular,
            "n_points": len(self.entries),
            "closedness_failures": self.closedness_failures,
            "entries": [e.to_json() for e in self.entries],
            "lorentz_determinants": self.lorentz_determinants,
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
    max_factor: float = 1e6,
    iterations: int = 80,
) -> list[BoundaryPoint]:
    """Locate boundary points of the cone along chart rays from the origin.

    Raises :class:`UnboundedRayError` when a ray stays inside the positivity
    region beyond ``max_factor`` times the frame scale, witnessing that the
    slice is not relatively compact.
    """
    if directions is None:
        n = count if count is not None else default_direction_count(frame.chart_dim)
        directions = sampling.unit_directions(frame.chart_dim, n, seed)
    origin = np.zeros(frame.chart_dim)
    out = []
    for d in np.atleast_2d(np.asarray(directions, dtype=float)):
        if not np.any(d != 0.0):
            raise ValueError("direction must be nonzero")
        t = frame.boundary_distance(origin, d, max_factor=max_factor, iterations=iterations)
        x = frame.point(t * d)
        norm = np.linalg.norm(x)
        if norm == 0.0:
            raise DegenerateFrameError("boundary ray passes through the origin")
        x_unit = x / norm
        out.append(
            BoundaryPoint(
                point=x_unit,
                origin_coords=origin,
                direction=d,
                ray_distance=t,
                gradient=frame.func.gradient(x_unit),
                hval=frame.func(x_unit),
            )
        )
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
    entries = []
    failures = []
    determinants = []
    for d in directions:
        try:
            pts = boundary_scan(frame, directions=[d])
        except UnboundedRayError as exc:
            failures.append({"direction": d.tolist(), "radius": exc.radius})
            continue
        bp = pts[0]
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
    )


@dataclass(frozen=True)
class CompactnessBound:
    delta: float
    eps: float
    radius_bound: float
    n_checked: int
    max_violation: float
    max_scanned_distance: float


def compactness_bound(
    frame: ChartFrame,
    delta: float | None = None,
    n_check: int = 1000,
    seed: int = 0,
) -> CompactnessBound:
    """Comparison-function bound for the slice of the cone.

    Finds eps > 0 with Hessian(u) <= -eps * Id on a coordinate ball of radius
    delta around the chart origin (u the k-th root of the slice restriction),
    builds the concave comparison function, verifies it dominates u at sampled
    points of the slice, and returns the induced outer radius bound.

    The chart origin must be the maximum of u on the slice (automatic for
    tangent frames).
    """
    n = frame.chart_dim
    origin = np.zeros(n)
    k = frame.degree
    h0 = frame.hval(origin)
    u0 = h0 ** (1.0 / k)
    du0 = (u0 / (k * h0)) * (frame.basis @ frame.func.gradient(frame.origin))
    if float(np.abs(du0).max()) > 1e-8 * max(1.0, u0):
        raise DegenerateFrameError("chart origin is not a critical point of the root restriction")
    axis_dirs = np.vstack([np.eye(n), -np.eye(n)])
    dists = [frame.boundary_distance(origin, d) for d in axis_dirs]
    if delta is None:
        delta = 0.5 * min(dists)
    # Hessian of u on the delta-ball: Hess(u) = -u * (chart metric)
    from .chart import chart_metric  # local import to avoid cycle at module load

    ball = [origin] + [
        f * delta * d
        for d in sampling.unit_directions(n, max(8, 4 * n), seed)
        for f in (0.35, 0.7, 0.999)
    ]
    eps = math.inf
    for c in ball:
        hval = frame.hval(c)
        if hval <= 0.0:
            continue
        u = hval ** (1.0 / frame.degree)
        hess_u = -u * chart_metric(frame, c, "psi_formula").matrix
        lam_max = float(np.linalg.eigvalsh(hess_u).max())
        eps = min(eps, -lam_max)
    if not math.isfinite(eps) or eps <= 0.0:
        raise DegenerateFrameError("no valid concavity modulus on the inner ball")
    # the parabolic comparison function dominates the root restriction only
    # when its opening is half the Hessian modulus: along a unit-speed
    # segment (v - u)'' = -2 eps - u'', nonnegative for eps <= modulus / 2
    eps *= 0.5

    def comparison(c):
        r = float(np.linalg.norm(c))
        if r <= delta:
            return u0 - eps * r * r
        return u0 + eps * delta * delta - 2.0 * eps * delta * r

    worst = -math.inf
    coords = frame.sample_coords(n_check, max_frac=0.999, seed=seed + 1)
    for c in coords:
        u = frame.hval(c) ** (1.0 / frame.degree)
        worst = max(worst, u - comparison(c))
    radius_bound = (u0 + eps * delta * delta) / (2.0 * eps * delta)
    return CompactnessBound(
        delta=delta,
        eps=eps,
        radius_bound=radius_bound,
        n_checked=len(coords),
        max_violation=worst,
        max_scanned_distance=max(dists),
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
